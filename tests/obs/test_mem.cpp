// Unit + integration coverage for the deterministic byte-accounting layer
// (obs/mem.hpp): the modeled allocation cost, pool/registry invariants, the
// thread-count byte-identity of campaign memory summaries, and a golden
// k=512 breakdown (regenerate with ASYNCDR_WRITE_GOLDEN=1).
#include "obs/mem.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "campaign/runner.hpp"
#include "dr/world.hpp"
#include "obs/json.hpp"
#include "protocols/runner.hpp"

#ifndef ASYNCDR_SOURCE_DIR
#define ASYNCDR_SOURCE_DIR "."
#endif

namespace asyncdr::obs {
namespace {

TEST(ModeledAllocBytes, MatchesTheChunkModel) {
  // Zero requests cost nothing; everything else pays the 8-byte header,
  // 16-byte alignment, 32-byte minimum chunk.
  EXPECT_EQ(modeled_alloc_bytes(0), 0u);
  EXPECT_EQ(modeled_alloc_bytes(1), 32u);
  EXPECT_EQ(modeled_alloc_bytes(24), 32u);   // 24+8 = 32, already aligned
  EXPECT_EQ(modeled_alloc_bytes(25), 48u);   // 25+8 = 33, rounds up
  EXPECT_EQ(modeled_alloc_bytes(64), 80u);
  EXPECT_EQ(modeled_alloc_bytes(1000), 1008u);
  // Pure arithmetic: usable in constant expressions.
  static_assert(modeled_alloc_bytes(48) == 64);
}

TEST(MemPool, TracksCurrentAndPeak) {
  MemRegistry reg;
  MemPool& pool = reg.pool("p");
  EXPECT_EQ(pool.current(), 0u);
  EXPECT_EQ(pool.peak(), 0u);
  pool.add(100);
  pool.add(50);
  EXPECT_EQ(pool.current(), 150u);
  EXPECT_EQ(pool.peak(), 150u);
  pool.sub(120);
  EXPECT_EQ(pool.current(), 30u);
  EXPECT_EQ(pool.peak(), 150u);
  pool.add(10);
  EXPECT_EQ(pool.peak(), 150u);  // below the high-water mark
}

TEST(MemPool, SubClampsInsteadOfWrapping) {
  MemRegistry reg;
  MemPool& pool = reg.pool("p");
  pool.add(10);
  pool.sub(1000);  // mis-paired credit must not wrap to ~2^64
  EXPECT_EQ(pool.current(), 0u);
  EXPECT_EQ(reg.total_current(), 0u);
}

TEST(MemRegistry, TotalPeakIsSimultaneousUsage) {
  MemRegistry reg;
  MemPool& a = reg.pool("a");
  MemPool& b = reg.pool("b");
  a.add(100);
  a.sub(100);
  b.add(50);
  // Per-pool peaks sum to 150, but the pools were never live together.
  EXPECT_EQ(a.peak(), 100u);
  EXPECT_EQ(b.peak(), 50u);
  EXPECT_EQ(reg.total_peak(), 100u);
  EXPECT_EQ(reg.total_current(), 50u);
}

TEST(MemRegistry, PoolHandlesAreStableAndSnapshotIsSorted) {
  MemRegistry reg;
  MemPool& z = reg.pool("z.pool");
  reg.pool("a.pool").add(7);
  // Creating more pools must not invalidate earlier references.
  z.add(3);
  EXPECT_EQ(&z, &reg.pool("z.pool"));
  const std::vector<MemPoolStats> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "a.pool");
  EXPECT_EQ(snap[1].name, "z.pool");
  EXPECT_EQ(snap[0].current, 7u);
  EXPECT_EQ(snap[1].current, 3u);
}

TEST(SettleComponent, AppliesDeltasAndToleratesLateWiring) {
  MemRegistry reg;
  std::uint64_t recorded = 0;
  // Unwired: the record tracks, the (absent) pool is untouched.
  settle_component(nullptr, recorded, 500);
  EXPECT_EQ(recorded, 500u);
  // Wire a pool and restart the record, as the set_mem_pool methods do:
  // the full current footprint lands on the pool.
  MemPool& pool = reg.pool("c");
  recorded = 0;
  settle_component(&pool, recorded, 500);
  EXPECT_EQ(pool.current(), 500u);
  settle_component(&pool, recorded, 800);  // growth charges the delta
  EXPECT_EQ(pool.current(), 800u);
  settle_component(&pool, recorded, 200);  // shrink credits the delta
  EXPECT_EQ(pool.current(), 200u);
  EXPECT_EQ(pool.peak(), 800u);
  settle_component(&pool, recorded, 200);  // no-op settle
  EXPECT_EQ(pool.current(), 200u);
}

proto::Scenario small_scenario(std::uint64_t seed) {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 512, .k = 8, .beta = 0.25, .message_bits = 256,
                     .seed = seed};
  s.honest = proto::make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  s.latency = proto::fixed_latency(1.0);
  return s;
}

TEST(WorldMemAccounting, ReportCarriesTheBreakdownAndTimeline) {
  proto::Scenario s = small_scenario(7);
  MemTimeline timeline;  // copied out: the world dies with run_scenario
  std::uint64_t registry_total_peak = 0;
  s.post_run = [&](dr::World& world, const dr::RunReport&) {
    timeline = world.mem_timeline();
    registry_total_peak = world.mem().total_peak();
  };
  const dr::RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok());

  // The pool set is fixed at world construction, sorted by name.
  ASSERT_FALSE(report.mem_pools.empty());
  std::vector<std::string> names;
  for (const MemPoolStats& p : report.mem_pools) names.push_back(p.name);
  const std::vector<std::string> expected{
      "dr.journal", "dr.peer.state", "dr.source", "obs.trace",
      "sim.engine.heap", "sim.msg.payloads", "sim.network.fanout",
      "sim.network.links"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(report.mem_total_peak, registry_total_peak);
  EXPECT_GT(report.mem_total_peak, 0u);
  for (const MemPoolStats& p : report.mem_pools) {
    EXPECT_LE(p.current, p.peak) << p.name;
    EXPECT_LE(p.peak, report.mem_total_peak) << p.name;
  }

  // Timeline: one column per pool, rows bracketing the run, events
  // monotone, byte rows the same width as the pool list.
  EXPECT_EQ(timeline.pools, expected);
  ASSERT_GE(timeline.samples.size(), 2u);
  for (std::size_t i = 0; i < timeline.samples.size(); ++i) {
    EXPECT_EQ(timeline.samples[i].bytes.size(), timeline.pools.size());
    if (i > 0) {
      EXPECT_GE(timeline.samples[i].events, timeline.samples[i - 1].events);
    }
  }
  EXPECT_EQ(timeline.samples.front().events, 0u);
  EXPECT_EQ(timeline.samples.back().events, report.events);
}

/// dr.peer.state must equal the sum of every live peer's self-reported
/// bytes, working sets included: a book a peer forgets to charge, or one a
/// restarted peer inherits from or drops against its dead incarnation,
/// breaks the equality. Inputs: crash_multi with silent-prefix crashes
/// (the rescue machinery keeps heard sets), crash_one, and a crash_multi
/// recovery world with a restart.
TEST(WorldMemAccounting, PeerStatePoolMatchesPeerSum) {
  proto::Scenario crash_one = small_scenario(13);
  crash_one.cfg.beta = 0.125;  // Algorithm 1 tolerates one crash
  crash_one.crashes = adv::CrashPlan::silent_prefix(1);
  crash_one.honest = proto::make_crash_one();
  proto::Scenario recovery = small_scenario(17);
  recovery.cfg.beta = 0.5;
  recovery.crashes = adv::CrashPlan{};
  recovery.recovery.factory = proto::make_crash_multi();
  recovery.crashes.add_at_time(5, 1.5);
  recovery.crashes.add_restart_after(5, 2.0);
  const std::vector<std::pair<const char*, proto::Scenario>> inputs{
      {"crash_multi", small_scenario(11)},
      {"crash_one", crash_one},
      {"crash_multi recovery", recovery}};
  for (auto [name, s] : inputs) {
    SCOPED_TRACE(name);
    bool checked = false;
    s.post_run = [&](dr::World& world, const dr::RunReport& report) {
      ASSERT_TRUE(report.ok()) << report.to_string();
      std::uint64_t expect = 0;
      for (sim::PeerId id = 0; id < s.cfg.k; ++id) {
        expect += world.peer(id).memory_bytes();
      }
      std::uint64_t pool_current = 0;
      bool found = false;
      for (const MemPoolStats& p : world.mem().snapshot()) {
        if (p.name == "dr.peer.state") {
          pool_current = p.current;
          found = true;
        }
      }
      ASSERT_TRUE(found);
      EXPECT_EQ(pool_current, expect);
      checked = true;
    };
    const dr::RunReport report = proto::run_scenario(s);
    ASSERT_TRUE(report.ok());
    if (s.recovery.enabled()) {
      EXPECT_GE(report.recovery.restarts, 1u);
    }
    EXPECT_TRUE(checked);
  }
}

TEST(WorldMemAccounting, BreakdownIsSeedDeterministic) {
  const auto snapshot_text = [](std::uint64_t seed) {
    const dr::RunReport report = proto::run_scenario(small_scenario(seed));
    std::ostringstream os;
    for (const MemPoolStats& p : report.mem_pools) {
      os << p.name << "=" << p.current << "/" << p.peak << ";";
    }
    os << "total=" << report.mem_total_peak;
    return os.str();
  };
  EXPECT_EQ(snapshot_text(7), snapshot_text(7));
  EXPECT_NE(snapshot_text(7), "total=0");
}

/// The campaign-level byte-identity claim: the SAME grid folded by 1 and by
/// 8 workers produces byte-identical summary JSON, including the mem_pools
/// histograms — run reports are thread-independent and the collector merge
/// is order-independent.
TEST(CampaignMemSummary, ByteIdenticalAcrossThreadCounts) {
  const auto summary_with_threads = [](std::size_t threads) {
    campaign::CampaignOptions copts;
    copts.name = "memtest";
    copts.total = 8;
    copts.threads = threads;
    copts.seed_base = 40;
    campaign::Campaign camp(std::move(copts));
    camp.run([](std::size_t, std::uint64_t seed) {
      campaign::RunOutcome out;
      out.label = "crash_multi";
      out.report = proto::run_scenario(small_scenario(seed));
      out.status = out.report.ok() ? RunStatus::kOk : RunStatus::kFailed;
      return out;
    });
    camp.finish();
    return camp.summary_string();
  };
  const std::string single = summary_with_threads(1);
  const std::string pooled = summary_with_threads(8);
  EXPECT_NE(single.find("mem_pools"), std::string::npos);
  EXPECT_NE(single.find("mem_total_peak_bytes"), std::string::npos);
  EXPECT_EQ(single, pooled);
}

/// Golden per-pool breakdown at k=512 (the bench sweep's shape, scaled to
/// test runtime). The accounting is modeled, so these bytes are a pure
/// function of (config, seed) — any diff is a real footprint change.
/// Regenerate deliberately with:
///   ASYNCDR_WRITE_GOLDEN=1 ./test_mem
TEST(GoldenMemBreakdown, K512MatchesCommittedBytes) {
  proto::Scenario s;
  s.cfg = dr::Config{.n = 8192, .k = 512, .beta = 0.125,
                     .message_bits = 1024, .seed = 1012};
  s.honest = proto::make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  s.latency = proto::fixed_latency(1.0);
  const dr::RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok());

  Json doc = Json::object();
  doc["config"] = s.cfg.to_string();
  doc["protocol"] = std::string("crash_multi");
  Json pools = Json::object();
  for (const MemPoolStats& p : report.mem_pools) {
    Json entry = Json::object();
    entry["current_bytes"] = p.current;
    entry["peak_bytes"] = p.peak;
    pools[p.name] = std::move(entry);
  }
  doc["pools"] = std::move(pools);
  doc["total_peak_bytes"] = report.mem_total_peak;
  const std::string rendered = doc.dump(1) + "\n";

  const std::string path =
      std::string(ASYNCDR_SOURCE_DIR) + "/tests/obs/golden_mem_k512.json";
  if (std::getenv("ASYNCDR_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with ASYNCDR_WRITE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(rendered, want.str())
      << "memory breakdown drifted from the committed golden bytes";
}

}  // namespace
}  // namespace asyncdr::obs
