// Crash-recovery invariants: a revived peer replays its journal, resumes
// querying only what it cannot prove, and NEVER claims a bit it did not
// durably download (checked against the source's own query accounting) —
// for every crash-point sentinel, and under journal loss/corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "dr/journal.hpp"
#include "dr/world.hpp"
#include "protocols/runner.hpp"

namespace asyncdr {
namespace {

using proto::RecoveryPlan;
using proto::Scenario;

dr::Config cfg_multi(std::uint64_t seed) {
  return dr::Config{
      .n = 1024, .k = 8, .beta = 0.5, .message_bits = 64, .seed = seed};
}

dr::Config cfg_one(std::uint64_t seed) {
  return dr::Config{
      .n = 512, .k = 8, .beta = 1.0 / 8, .message_bits = 64, .seed = seed};
}

TEST(Recovery, CrashOneWarmRestartRecovers) {
  Scenario s;
  s.cfg = cfg_one(11);
  s.honest = proto::make_crash_one();
  s.recovery.factory = proto::make_crash_one();
  s.crashes.add_at_time(3, 2.5);
  // The delay is measured from t=0; 3.0 + backoff lands safely after the
  // crash at 2.5 (a restart firing while the peer is still up is a no-op).
  s.crashes.add_restart_after(3, 3.0);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_EQ(r.recovery.journal_replays, 1u);
  EXPECT_EQ(r.recovery.cold_fallbacks, 0u);
  EXPECT_GT(r.recovery.bits_recovered, 0u);
  EXPECT_GT(r.recovery.queries_saved, 0u);
}

TEST(Recovery, CrashMultiWarmRestartRecovers) {
  Scenario s;
  s.cfg = cfg_multi(12);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  s.crashes.add_at_time(5, 1.5);
  s.crashes.add_restart_after(5, 2.0);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_EQ(r.recovery.journal_replays, 1u);
  EXPECT_GT(r.recovery.queries_saved, 0u);
}

// The acceptance invariant: killed at ANY journal sentinel, the revived
// peer's replayed claim is a subset of what it actually queried from the
// source — no over-claim, at the exact granularity the theorems count.
// Three other peers crash at the start, so the victim runs a second phase:
// each sentinel is hit in phase 1 and, the second time, in phase 2, after
// the victim has heard other peers' bits that it must not journal. The
// claim is checked as the victim is revived (the world replays the log just
// before it builds the new peer) and again at the end.
TEST(Recovery, NoOverClaimAtAnyCrashPoint) {
  const dr::CrashPoint points[] = {
      dr::CrashPoint::kAppendStart, dr::CrashPoint::kMidRecord,
      dr::CrashPoint::kAppendCommit, dr::CrashPoint::kCheckpoint};
  constexpr sim::PeerId kVictim = 2;
  for (const dr::CrashPoint point : points) {
    for (const std::size_t nth : {1, 2}) {
      const std::string at =
          std::string(dr::to_string(point)) + " #" + std::to_string(nth);
      Scenario s;
      s.cfg = cfg_multi(13);
      s.honest = proto::make_crash_multi();
      RecoveryPlan::CrashPointKill kill;
      kill.peer = kVictim;
      kill.point = point;
      kill.nth = nth;
      kill.restart_delay = 1.0;
      s.recovery.kills.push_back(kill);
      for (const sim::PeerId id : {5, 6, 7}) s.crashes.add_at_time(id, 0.0);
      dr::World* world = nullptr;
      std::size_t checked = 0;
      const auto check = [&](const char* when) {
        IntervalSet claimed =
            dr::Journal::replay(world->journal_store().log(kVictim),
                                world->config().n)
                .intervals;
        claimed.subtract(world->source().queried_indices(kVictim));
        EXPECT_TRUE(claimed.empty()) << "over-claim at " << at << " " << when
                                     << ": " << claimed.to_string();
        ++checked;
      };
      s.recovery.factory = [&](const dr::Config& c, sim::PeerId id) {
        if (id == kVictim) check("at the revival");
        return proto::make_crash_multi()(c, id);
      };
      s.instrument = [&](dr::World& w) {
        world = &w;
        // asyncdr-lint: allow(DR003) test harness checking query accounting
        w.source().enable_index_recording(true);
      };
      s.post_run = [&](dr::World&, const dr::RunReport& r) {
        check("at the end");
        EXPECT_TRUE(r.ok()) << at << ": " << r.to_string();
      };
      const dr::RunReport r = proto::run_scenario(s);
      EXPECT_EQ(checked, 2u) << at;
      EXPECT_EQ(r.recovery.restarts, 1u) << at;
    }
  }
}

// The A/B behind BENCH_recovery.json: identical crash/restart schedule,
// only the journal replay differs — warm must issue strictly fewer queries.
TEST(Recovery, WarmIssuesStrictlyFewerQueriesThanCold) {
  const auto run = [](bool cold) {
    Scenario s;
    s.cfg = cfg_multi(14);
    s.honest = proto::make_crash_multi();
    s.recovery.factory = proto::make_crash_multi();
    s.recovery.options.cold_restart = cold;
    s.crashes.add_at_time(1, 1.0);
    s.crashes.add_at_time(6, 2.0);
    s.crashes.add_restart_after(1, 4.0);
    s.crashes.add_restart_after(6, 5.0);
    return proto::run_scenario(s);
  };
  const dr::RunReport warm = run(false);
  const dr::RunReport cold = run(true);
  ASSERT_TRUE(warm.ok()) << warm.to_string();
  ASSERT_TRUE(cold.ok()) << cold.to_string();
  EXPECT_LT(warm.query_complexity, cold.query_complexity);
  EXPECT_LT(warm.total_queries, cold.total_queries);
  EXPECT_GT(warm.recovery.queries_saved, 0u);
  EXPECT_EQ(cold.recovery.queries_saved, 0u);
  EXPECT_GT(warm.recovery.journal_replays, 0u);
  EXPECT_EQ(cold.recovery.journal_replays, 0u);
  EXPECT_EQ(cold.recovery.cold_fallbacks, 2u);
}

TEST(Recovery, BackoffIsCappedExponential) {
  dr::RecoveryOptions o;
  o.base_delay = 0.5;
  o.backoff_factor = 2.0;
  o.max_delay = 8.0;
  EXPECT_DOUBLE_EQ(o.backoff(0), 0.5);
  EXPECT_DOUBLE_EQ(o.backoff(1), 1.0);
  EXPECT_DOUBLE_EQ(o.backoff(3), 4.0);
  EXPECT_DOUBLE_EQ(o.backoff(4), 8.0);   // hits the cap exactly
  EXPECT_DOUBLE_EQ(o.backoff(20), 8.0);  // and stays there
}

TEST(Recovery, FlappingPeerConverges) {
  Scenario s;
  s.cfg = cfg_multi(15);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  Rng rng(99);
  s.crashes = adv::CrashPlan::flapping(s.cfg, rng, /*count=*/1, /*cycles=*/2,
                                       /*period=*/6.0, /*up_delay=*/1.5,
                                       /*jitter=*/0.5);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 2u);
  // The second resume replays a journal that already covers the array.
  EXPECT_GT(r.recovery.queries_saved, r.recovery.bits_recovered / 2);
}

TEST(Recovery, RestartStormAllRevivedPeersFinish) {
  Scenario s;
  s.cfg = cfg_multi(16);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  Rng rng(7);
  s.crashes = adv::CrashPlan::restart_storm(s.cfg, rng, /*count=*/4,
                                            /*spacing=*/1.0, /*storm_at=*/6.0,
                                            /*window=*/1.0);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 4u);
  EXPECT_TRUE(r.unterminated_peers.empty());
}

TEST(Recovery, ClearedJournalFallsBackColdAndStaysSafe) {
  Scenario s;
  s.cfg = cfg_multi(17);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  s.crashes.add_at_time(4, 1.0);
  s.crashes.add_restart_after(4, 3.0);
  RecoveryPlan::Corruption c;
  c.peer = 4;
  c.mode = RecoveryPlan::Corruption::Mode::kClear;
  c.at = 1.1;
  s.recovery.corruptions.push_back(c);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.cold_fallbacks, 1u);
  EXPECT_EQ(r.recovery.queries_saved, 0u);
}

TEST(Recovery, TruncatedJournalIsDetectedAndStaysSafe) {
  Scenario s;
  s.cfg = cfg_multi(18);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  s.crashes.add_at_time(4, 1.0);
  s.crashes.add_restart_after(4, 3.0);
  RecoveryPlan::Corruption c;
  c.peer = 4;
  c.mode = RecoveryPlan::Corruption::Mode::kTruncateTail;
  c.amount = 3;  // rip through the last record's CRC
  c.at = 1.1;
  s.recovery.corruptions.push_back(c);
  s.instrument = [](dr::World& w) {
    // asyncdr-lint: allow(DR003) test harness checking query accounting
    w.source().enable_index_recording(true);
  };
  s.post_run = [](dr::World& w, const dr::RunReport&) {
    const dr::JournalReplay replay =
        dr::Journal::replay(w.journal_store().log(4), w.config().n);
    IntervalSet claimed = replay.intervals;
    claimed.subtract(w.source().queried_indices(4));
    EXPECT_TRUE(claimed.empty()) << claimed.to_string();
  };
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.torn_tails, 1u);
}

TEST(Recovery, MaxRestartsZeroLeavesPeerDead) {
  Scenario s;
  s.cfg = cfg_multi(19);
  s.honest = proto::make_crash_multi();
  s.recovery.factory = proto::make_crash_multi();
  s.recovery.options.max_restarts = 0;
  s.crashes.add_at_time(2, 1.0);
  s.crashes.add_restart_after(2, 1.0);
  const dr::RunReport r = proto::run_scenario(s);
  EXPECT_TRUE(r.ok()) << r.to_string();  // peer 2 is faulty; staying dead is fine
  EXPECT_EQ(r.recovery.restarts, 0u);
}

TEST(Recovery, RestartInstructionsRequireRecoveryFactory) {
  Scenario s;
  s.cfg = cfg_multi(20);
  s.honest = proto::make_crash_multi();
  s.crashes.add_at_time(2, 1.0);
  s.crashes.add_restart_after(2, 1.0);  // but no s.recovery.factory
  EXPECT_THROW((void)proto::run_scenario(s), contract_violation);
}

TEST(Recovery, DeterministicAcrossRuns) {
  const auto run = [] {
    Scenario s;
    s.cfg = cfg_multi(21);
    s.honest = proto::make_crash_multi();
    s.recovery.factory = proto::make_crash_multi();
    Rng rng(5);
    s.crashes = adv::CrashPlan::restart_storm(s.cfg, rng, 3, 1.0, 5.0, 1.5);
    return proto::run_scenario(s);
  };
  const dr::RunReport a = run();
  const dr::RunReport b = run();
  EXPECT_EQ(a.query_complexity, b.query_complexity);
  EXPECT_DOUBLE_EQ(a.time_complexity, b.time_complexity);
  EXPECT_EQ(a.message_complexity, b.message_complexity);
  EXPECT_EQ(a.recovery.queries_saved, b.recovery.queries_saved);
  EXPECT_EQ(a.recovery.bits_recovered, b.recovery.bits_recovered);
}

/// Downloads one fixed batch of four runs through the run funnel, journals
/// it, then finishes with the true array.
struct RunBatchPeer final : dr::Peer {
  static std::vector<Interval> batch() {
    return {{0, 10}, {20, 90}, {130, 131}, {200, 264}};
  }
  void on_start() override {
    const std::vector<Interval> runs = batch();
    const BitVec values = query_runs(runs);
    if (!journal_runs(runs, values)) return;  // killed inside the batch
    const Interval all{0, n()};
    finish(query_runs({&all, 1}));
  }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

// A kill at any append sentinel inside a multi-run batch leaves a log that
// replays to a prefix of the batch's runs, with their true values: strictly
// fewer bits than the batch downloaded, unless the kill came after the last
// record committed. (The checkpoint sentinel lies outside any batch.)
TEST(Recovery, KillInsideRunBatchLeavesReplayablePrefix) {
  const std::vector<Interval> runs = RunBatchPeer::batch();
  std::size_t batch_bits = 0;
  for (const Interval& run : runs) batch_bits += run.length();
  const dr::Config cfg{
      .n = 512, .k = 3, .beta = 0.34, .message_bits = 16, .seed = 5};
  Rng rng(5);
  const BitVec input = BitVec::generate(cfg.n, [&] { return rng.flip(); });
  for (const dr::CrashPoint point :
       {dr::CrashPoint::kAppendStart, dr::CrashPoint::kMidRecord,
        dr::CrashPoint::kAppendCommit}) {
    for (std::size_t nth = 1; nth <= runs.size(); ++nth) {
      dr::World w(cfg, input);
      for (sim::PeerId id = 0; id < cfg.k; ++id) {
        w.set_peer(id, std::make_unique<RunBatchPeer>());
      }
      w.enable_recovery([](const dr::Config&, sim::PeerId) {
        return std::make_unique<RunBatchPeer>();
      });
      w.kill_at_crash_point(1, point, nth);
      const dr::RunReport r = w.run();
      const std::string at =
          std::string(dr::to_string(point)) + " #" + std::to_string(nth);
      EXPECT_TRUE(r.ok()) << at << ": " << r.to_string();
      EXPECT_TRUE(w.network().is_crashed(1)) << at;

      // Records 1..nth-1 committed before the kill; the nth too if the
      // kill came after its commit.
      const std::size_t durable =
          point == dr::CrashPoint::kAppendCommit ? nth : nth - 1;
      IntervalSet want;
      for (std::size_t i = 0; i < durable; ++i) {
        want.insert(runs[i].lo, runs[i].hi);
      }
      const dr::JournalReplay replay =
          dr::Journal::replay(w.journal_store().log(1), cfg.n);
      EXPECT_EQ(replay.intervals, want) << at;
      EXPECT_EQ(replay.records, durable) << at;
      EXPECT_EQ(replay.torn, point == dr::CrashPoint::kMidRecord) << at;
      if (durable < runs.size()) {
        EXPECT_LT(replay.intervals.count(), batch_bits) << at;
      }
      for (const Interval& iv : replay.intervals.intervals()) {
        for (std::size_t i = iv.lo; i < iv.hi; ++i) {
          ASSERT_EQ(replay.bits.get(i), input.get(i)) << at << " bit " << i;
        }
      }
    }
  }
}

// ---- Exhaustive crash-point oracle over the restart paths ----

constexpr dr::CrashPoint kCrashPoints[] = {
    dr::CrashPoint::kAppendStart, dr::CrashPoint::kMidRecord,
    dr::CrashPoint::kAppendCommit, dr::CrashPoint::kCheckpoint};

/// One restart path: a protocol whose `victim` crashes at `crash_at` and
/// is revived at `restart_at` (a restart lands after its backoff), so it
/// runs at least two incarnations.
struct RestartPath {
  const char* name;
  dr::Config cfg;
  proto::PeerFactory factory;
  sim::PeerId victim;
  sim::Time crash_at;
  sim::Time restart_at;
};

struct PathRun {
  dr::RunReport report;
  /// The victim's hits of each crash point across its incarnations
  /// (counted only when no kill is armed).
  std::vector<std::size_t> hits;
};

/// Runs a restart path, warm or cold, optionally killing the victim at a
/// crash point as well. Checks that the victim's journal claims only bits
/// it has queried so far, as each incarnation is revived (the world
/// replays the log just before it builds the new peer) and at the end.
PathRun run_restart_path(const RestartPath& path, bool cold,
                         const RecoveryPlan::CrashPointKill* kill,
                         const std::string& at) {
  PathRun out;
  out.hits.assign(std::size(kCrashPoints), 0);
  Scenario s;
  s.cfg = path.cfg;
  s.honest = path.factory;
  s.recovery.options.cold_restart = cold;
  s.crashes.add_at_time(path.victim, path.crash_at);
  s.crashes.add_restart_after(path.victim, path.restart_at);
  if (kill != nullptr) s.recovery.kills.push_back(*kill);
  dr::World* world = nullptr;
  const auto check = [&](const char* when) {
    IntervalSet claimed =
        dr::Journal::replay(world->journal_store().log(path.victim),
                            world->config().n)
            .intervals;
    claimed.subtract(world->source().queried_indices(path.victim));
    EXPECT_TRUE(claimed.empty()) << at << " " << when << ": over-claim "
                                 << claimed.to_string();
  };
  s.recovery.factory = [&](const dr::Config& c, sim::PeerId id) {
    if (id == path.victim) check("at a restart");
    return path.factory(c, id);
  };
  s.instrument = [&](dr::World& w) {
    world = &w;
    // asyncdr-lint: allow(DR003) test harness checking query accounting
    w.source().enable_index_recording(true);
    if (kill != nullptr) return;
    w.journal_store().set_crash_point_hook(
        [&](sim::PeerId id, dr::CrashPoint point) {
          if (id == path.victim) ++out.hits[static_cast<std::size_t>(point)];
          return false;
        });
  };
  s.post_run = [&](dr::World&, const dr::RunReport&) { check("at the end"); };
  out.report = proto::run_scenario(s);
  EXPECT_TRUE(out.report.ok()) << at << ": " << out.report.to_string();
  EXPECT_GE(out.report.recovery.restarts, 1u) << at;
  return out;
}

// Kills the victim at every (crash point, nth) it reaches in the unkilled
// run — its first incarnation's appends, and the revived incarnation's
// recovery appends — and revives it after each kill. Every run, killed or
// not, must finish correctly, and the victim's journal must never claim a
// bit it has not queried. Replaying the journal (warm) must not cost more
// queries than the same schedule restarted cold: the same incarnations
// killed at the same sentinel. The first incarnation runs identically on
// both sides, but a cold revival downloads all of X as one record where a
// warm one writes one record per missing run, so a kill at a later record
// of the revived incarnation pairs with a kill at the last record the cold
// revival writes.
TEST(Recovery, EveryCrashPointOnTheRestartPathsIsSafe) {
  // Each protocol crashes once before the victim has heard any peer and
  // once after (crash_one's phase-1 chunks land from t = 3; crash_multi's
  // round 1 runs to t = 10), so the revived incarnation starts from either
  // kind of state.
  const RestartPath paths[] = {
      {"crash_one early", cfg_one(11), proto::make_crash_one(), 3, 2.5, 3.0},
      {"crash_one late", cfg_one(11), proto::make_crash_one(), 3, 3.5, 4.0},
      {"crash_multi early", cfg_multi(12), proto::make_crash_multi(), 5, 1.5,
       2.0},
      {"crash_multi late", cfg_multi(12), proto::make_crash_multi(), 5, 6.0,
       7.0}};
  for (const RestartPath& path : paths) {
    const std::string name = path.name;
    const std::vector<std::size_t> hits =
        run_restart_path(path, false, nullptr, name + " unkilled").hits;
    const std::vector<std::size_t> cold_hits =
        run_restart_path(path, true, nullptr, name + " unkilled cold").hits;
    for (const dr::CrashPoint point : kCrashPoints) {
      const std::size_t total = hits[static_cast<std::size_t>(point)];
      const std::size_t cold_total =
          cold_hits[static_cast<std::size_t>(point)];
      EXPECT_GT(total, 0u) << name << " " << dr::to_string(point);
      for (std::size_t nth = 1; nth <= total; ++nth) {
        const std::string at =
            name + " " + dr::to_string(point) + " #" + std::to_string(nth);
        RecoveryPlan::CrashPointKill kill;
        kill.peer = path.victim;
        kill.point = point;
        kill.nth = nth;
        kill.restart_delay = 1.0;
        const dr::RunReport warm =
            run_restart_path(path, false, &kill, at).report;
        kill.nth = std::min(nth, cold_total);
        const dr::RunReport cold =
            run_restart_path(path, true, &kill, at + " cold").report;
        EXPECT_EQ(warm.recovery.restarts, cold.recovery.restarts) << at;
        EXPECT_LE(warm.query_complexity, cold.query_complexity) << at;
        EXPECT_LE(warm.per_peer_queries[path.victim],
                  cold.per_peer_queries[path.victim])
            << at;
      }
    }
  }
}

/// FNV-1a over every peer's journal log, each prefixed by its length.
std::uint64_t journal_fingerprint(dr::World& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t byte) {
    h = (h ^ byte) * 0x100000001b3ull;
  };
  const dr::JournalStore& store = w.journal_store();
  for (sim::PeerId id = 0; id < store.peers(); ++id) {
    const std::vector<std::uint8_t>& log = store.log(id);
    for (std::size_t b = 0; b < 8; ++b) mix((log.size() >> (8 * b)) & 0xffu);
    for (const std::uint8_t byte : log) mix(byte);
  }
  return h;
}

// The exact journal bytes of a crash_multi world with cold restarts and a
// crash_one world with a warm restart: every download's record split (one
// record per maximal run) and encoding. Run reports do not hash log bytes,
// so this is the check that a change to the download path keeps them.
TEST(Recovery, JournalBytesArePinned) {
  std::uint64_t got = 0;
  const auto capture = [&](dr::World& w, const dr::RunReport&) {
    got = journal_fingerprint(w);
  };

  Scenario multi;
  multi.cfg = cfg_multi(14);
  multi.honest = proto::make_crash_multi();
  multi.recovery.factory = proto::make_crash_multi();
  multi.recovery.options.cold_restart = true;
  multi.crashes.add_at_time(1, 1.0);
  multi.crashes.add_at_time(6, 2.0);
  multi.crashes.add_restart_after(1, 4.0);
  multi.crashes.add_restart_after(6, 5.0);
  multi.post_run = capture;
  const dr::RunReport rm = proto::run_scenario(multi);
  ASSERT_TRUE(rm.ok()) << rm.to_string();
  EXPECT_EQ(rm.recovery.restarts, 2u);
  EXPECT_EQ(got, 0xef26b099b8f4efc5ull) << std::hex << got;

  Scenario one;
  one.cfg = cfg_one(11);
  one.honest = proto::make_crash_one();
  one.recovery.factory = proto::make_crash_one();
  one.crashes.add_at_time(3, 2.5);
  one.crashes.add_restart_after(3, 3.0);
  one.post_run = capture;
  const dr::RunReport ro = proto::run_scenario(one);
  ASSERT_TRUE(ro.ok()) << ro.to_string();
  EXPECT_EQ(ro.recovery.restarts, 1u);
  EXPECT_EQ(got, 0x69a18830f08e6439ull) << std::hex << got;
}

}  // namespace
}  // namespace asyncdr
