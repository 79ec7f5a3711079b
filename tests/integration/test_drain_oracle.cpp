// Drain oracle for run completion. World::run stops at the first event after
// which nothing still pending can change the report (DESIGN.md, "Run
// completion"). This suite checks that claim from the outside: run a world,
// then drain its engine by hand with step() and assert that the drain moved
// nothing the report is made of. The grid covers every honest protocol,
// Byzantine attackers, crash plans, restart storms and flapping, crash-point
// kills with auto-restart, a beyond-model delivery stressor, and live source
// mutations.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "chaos/injectors.hpp"
#include "common/rng.hpp"
#include "protocols/runner.hpp"

namespace asyncdr::proto {
namespace {

/// Everything the report is computed from, read off a live world.
struct Outcome {
  std::vector<std::uint64_t> bits_queried;   ///< every peer
  std::vector<std::uint64_t> sent_units;     ///< nonfaulty peers; 0 if faulty
  std::vector<std::uint64_t> sent_payloads;  ///< nonfaulty peers; 0 if faulty
  std::vector<bool> faulty;
  std::vector<bool> terminated;
  std::vector<sim::Time> termination_time;   ///< -1 if not terminated
  std::vector<BitVec> outputs;
  /// Every peer. Each recovery counter moves only at a restart.
  std::vector<std::size_t> restarts;
  BitVec source;
};

Outcome observe(dr::World& world) {
  Outcome o;
  for (sim::PeerId id = 0; id < world.config().k; ++id) {
    const dr::Peer& p = world.peer(id);
    const bool faulty = world.is_faulty(id);
    o.bits_queried.push_back(world.source().bits_queried(id));
    o.sent_units.push_back(faulty ? 0 : world.network().sent_units(id));
    o.sent_payloads.push_back(faulty ? 0 : world.network().sent_payloads(id));
    o.faulty.push_back(faulty);
    o.terminated.push_back(p.terminated());
    o.termination_time.push_back(p.terminated() ? p.termination_time() : -1);
    o.outputs.push_back(p.terminated() ? p.output() : BitVec());
    o.restarts.push_back(world.restart_count(id));
  }
  o.source = world.source().data();
  return o;
}

void expect_same(const Outcome& before, const Outcome& after,
                 const std::string& what) {
  EXPECT_EQ(before.bits_queried, after.bits_queried) << what;
  EXPECT_EQ(before.sent_units, after.sent_units) << what;
  EXPECT_EQ(before.sent_payloads, after.sent_payloads) << what;
  EXPECT_EQ(before.faulty, after.faulty) << what;
  EXPECT_EQ(before.terminated, after.terminated) << what;
  EXPECT_EQ(before.termination_time, after.termination_time) << what;
  EXPECT_EQ(before.outputs, after.outputs) << what;
  EXPECT_EQ(before.restarts, after.restarts) << what;
  EXPECT_EQ(before.source, after.source) << what;
}

/// How many worlds were drained, and how many of them had stopped early.
struct DrainStats {
  std::size_t cases = 0;
  std::size_t stopped_early = 0;  ///< cases whose drain fired >= 1 event
};

/// A drain longer than this is a runaway attacker, not a fixed outcome; the
/// oracle then compares what it reached (a budget-cut run stops anyway).
constexpr std::size_t kMaxDrainEvents = 2'000'000;

void run_and_drain(Scenario s, const std::string& what, DrainStats& stats) {
  s.post_run = [&](dr::World& world, const dr::RunReport& report) {
    const Outcome before = observe(world);
    EXPECT_EQ(report.recovery.restarts,
              std::accumulate(before.restarts.begin(), before.restarts.end(),
                              std::size_t{0}))
        << what;
    std::size_t drained = 0;
    while (drained < kMaxDrainEvents && world.engine().step()) ++drained;
    expect_same(before, observe(world), what + " | " + report.to_string());
    ++stats.cases;
    if (drained > 0 && !report.budget_exhausted) ++stats.stopped_early;
  };
  (void)run_scenario(s);
}

TEST(DrainOracle, ChaosGridOverEveryProtocol) {
  // Every protocol in the chaos registry, in-model (crash plans, Byzantine
  // coalitions with the profile's attack mix, start skew), with crash
  // recovery (restarts, crash-point kills with auto-restart, journal
  // corruption), and beyond the model (duplicating, burst-holding stressor).
  chaos::ChaosOptions in_model;
  in_model.n_cap = 1024;
  in_model.k_cap = 16;
  chaos::ChaosOptions recovery = in_model;
  recovery.recovery = true;
  chaos::ChaosOptions stressed = in_model;
  stressed.beyond_model = true;
  const std::pair<const char*, chaos::ChaosOptions> variants[] = {
      {"in-model", in_model}, {"recovery", recovery}, {"stressed", stressed}};

  DrainStats stats;
  for (const chaos::ProtocolProfile& profile : chaos::protocol_registry()) {
    for (const auto& [variant, options] : variants) {
      if (options.recovery && !profile.recoverable) continue;
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        chaos::ChaosCase c = chaos::sample_case(profile, seed, options);
        run_and_drain(std::move(c.scenario),
                      profile.name + " " + variant + " seed " +
                          std::to_string(seed) + ": " + c.description,
                      stats);
      }
    }
  }
  // The oracle is vacuous unless runs really stop with traffic left.
  EXPECT_GT(stats.stopped_early, stats.cases / 4)
      << stats.stopped_early << " of " << stats.cases;
}

TEST(DrainOracle, GarbageAttackersAgainstNaive) {
  // The table-1 naive row in small: every honest peer is done at t = 0 and
  // the garbage attackers' bounded chatter is all that is left.
  DrainStats stats;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario s;
    s.cfg = dr::Config{.n = 256, .k = 12, .beta = 0.5, .message_bits = 64,
                       .seed = seed};
    s.honest = make_naive();
    s.byzantine = make_garbage_byz();
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
    run_and_drain(s, "naive vs garbage seed " + std::to_string(seed), stats);
  }
  EXPECT_EQ(stats.stopped_early, stats.cases);
}

TEST(DrainOracle, RestartStormsFlappingAndCrashPointKills) {
  DrainStats stats;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const dr::Config cfg{.n = 2048, .k = 12, .beta = 0.5,
                         .message_bits = 256, .seed = seed};
    Rng rng(seed * 31 + 7);

    Scenario storm;
    storm.cfg = cfg;
    storm.honest = make_crash_multi();
    storm.recovery.factory = make_crash_multi();
    storm.crashes = adv::CrashPlan::restart_storm(
        cfg, rng, /*count=*/4, /*spacing=*/1.0, /*storm_at=*/6.0,
        /*window=*/1.0);
    run_and_drain(storm, "restart storm seed " + std::to_string(seed), stats);

    Scenario flap;
    flap.cfg = cfg;
    flap.honest = make_crash_multi();
    flap.recovery.factory = make_crash_multi();
    flap.crashes = adv::CrashPlan::flapping(cfg, rng, /*count=*/2,
                                            /*cycles=*/2, /*period=*/6.0,
                                            /*up_delay=*/1.5, /*jitter=*/0.5);
    run_and_drain(flap, "flapping seed " + std::to_string(seed), stats);

    for (const dr::CrashPoint point :
         {dr::CrashPoint::kAppendStart, dr::CrashPoint::kMidRecord,
          dr::CrashPoint::kAppendCommit, dr::CrashPoint::kCheckpoint}) {
      Scenario kills;
      kills.cfg = cfg;
      kills.honest = make_crash_multi();
      kills.recovery.factory = make_crash_multi();
      for (sim::PeerId victim : {sim::PeerId{1}, sim::PeerId{5}}) {
        RecoveryPlan::CrashPointKill kill;
        kill.peer = victim;
        kill.point = point;
        kill.nth = 1 + victim % 2;
        kill.restart_delay = 0.5 * static_cast<double>(victim);
        kills.recovery.kills.push_back(kill);
      }
      run_and_drain(kills,
                    "crash-point kills at " + std::string(dr::to_string(point)) +
                        " seed " + std::to_string(seed),
                    stats);
    }
  }
  EXPECT_GT(stats.stopped_early, 0u);
}

TEST(DrainOracle, LiveSourceMutations) {
  // Mutations before, during and long after the honest downloads: the late
  // ones are not deliveries, so the run waits for them and the verdict is
  // taken against the final source either way.
  DrainStats stats;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const sim::Time at : {0.5, 3.0, 40.0}) {
      Scenario s;
      s.cfg = dr::Config{.n = 1024, .k = 10, .beta = 0.3,
                         .message_bits = 128, .seed = seed};
      s.honest = make_crash_multi();
      s.instrument = [at, seed](dr::World& world) {
        world.engine().schedule_at(at, [&world, seed] {
          BitVec data = world.source().data();
          data.flip(static_cast<std::size_t>(seed * 97) % data.size());
          world.source().set_data(std::move(data));
        });
      };
      run_and_drain(s,
                    "mutation at " + std::to_string(at) + " seed " +
                        std::to_string(seed),
                    stats);
    }
  }
  EXPECT_EQ(stats.cases, 12u);
}

}  // namespace
}  // namespace asyncdr::proto
