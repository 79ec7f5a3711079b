#include "protocols/crash_multi.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "harness.hpp"
#include "protocols/bounds.hpp"
#include "protocols/segments.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

TEST(CrashMulti, FaultFreeIsQueryOptimal) {
  Scenario s;
  s.cfg = cfg(1 << 14, 16, 0.0);
  s.honest = make_crash_multi();
  const auto report = expect_ok(s, "fault-free");
  // One phase of n/k plus no direct tail.
  EXPECT_EQ(report.query_complexity, (1u << 14) / 16);
}

TEST(CrashMulti, ToleratesMaxCrashesSilentPrefix) {
  Scenario s;
  s.cfg = cfg(1 << 13, 16, 0.5);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(8);
  const auto report = expect_ok(s, "silent prefix");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, HighBetaNinetyPercentCrashes) {
  Scenario s;
  s.cfg = cfg(1 << 13, 40, 0.9);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(36);
  const auto report = expect_ok(s, "beta=0.9");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
  // Still far below naive.
  EXPECT_LT(report.query_complexity, s.cfg.n / 2);
}

TEST(CrashMulti, StaggeredCrashesAcrossPhases) {
  Scenario s;
  s.cfg = cfg(1 << 13, 12, 0.5, 3);
  s.honest = make_crash_multi();
  Rng rng(17);
  s.crashes = adv::CrashPlan::staggered(s.cfg, rng, 6, 2.5);
  const auto report = expect_ok(s, "staggered");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, PartialBroadcastCrashes) {
  Scenario s;
  s.cfg = cfg(1 << 12, 10, 0.4, 5);
  s.honest = make_crash_multi();
  Rng rng(29);
  s.crashes = adv::CrashPlan::partial_broadcast(s.cfg, rng, 4, 3);
  expect_ok(s, "partial broadcast");
}

TEST(CrashMulti, FastCancelOffStillCorrect) {
  Scenario s;
  s.cfg = cfg(1 << 12, 10, 0.5, 6);
  s.honest = make_crash_multi({.fast_cancel = false});
  Rng rng(31);
  s.crashes = adv::CrashPlan::random(s.cfg, rng, 5, 6.0);
  const auto report = expect_ok(s, "no fast-cancel");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, DeterministicGivenSeed) {
  auto run_once = [] {
    Scenario s;
    s.cfg = cfg(1 << 12, 12, 0.5, 9);
    s.honest = make_crash_multi();
    Rng rng(5);
    s.crashes = adv::CrashPlan::random(s.cfg, rng, 6, 5.0);
    return run_scenario(s);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.query_complexity, b.query_complexity);
  EXPECT_EQ(a.message_complexity, b.message_complexity);
  EXPECT_DOUBLE_EQ(a.time_complexity, b.time_complexity);
  EXPECT_EQ(a.events, b.events);
}

TEST(CrashMulti, SmallInputDirectPath) {
  // n at most the direct-query threshold max(ceil(n/k), 2k): everyone just
  // queries everything in phase 1.
  Scenario s;
  s.cfg = cfg(16, 8, 0.5, 2);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(4);
  const auto report = expect_ok(s, "small input");
  EXPECT_EQ(report.query_complexity, 16u);
}

TEST(CrashMulti, LateCrashAfterSomeTerminated) {
  // A peer that survives long enough to rescue others, then crashes.
  Scenario s;
  s.cfg = cfg(1 << 12, 8, 0.25, 11);
  s.honest = make_crash_multi();
  s.crashes.add_at_time(3, 50.0);
  s.crashes.add_at_time(5, 100.0);
  expect_ok(s, "late crash");
}

TEST(CrashMulti, StragglerStartTimes) {
  Scenario s;
  s.cfg = cfg(1 << 12, 8, 0.25, 13);
  s.honest = make_crash_multi();
  s.start_times[0] = 20.0;  // very late starter must still catch up
  s.crashes.add_at_time(7, 0.0);
  expect_ok(s, "late start");
}

TEST(CrashMulti, OptionsControlPhaseStructure) {
  // direct_threshold = n forces the one-shot naive path; max_phases = 1
  // forces the direct tail right after phase 1.
  dr::Config c = cfg(1 << 12, 8, 0.25, 4);
  {
    dr::World world(c, random_input(c.n, c.seed));
    for (sim::PeerId id = 0; id < c.k; ++id) {
      world.set_peer(id, std::make_unique<CrashMultiPeer>(
                             CrashMultiPeer::Options{.direct_threshold = c.n}));
    }
    const auto report = world.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.query_complexity, c.n);  // everyone queried everything
  }
  {
    dr::World world(c, random_input(c.n, c.seed));
    std::vector<CrashMultiPeer*> peers;
    for (sim::PeerId id = 0; id < c.k; ++id) {
      auto p = std::make_unique<CrashMultiPeer>(
          CrashMultiPeer::Options{.max_phases = 1});
      peers.push_back(p.get());
      world.set_peer(id, std::move(p));
    }
    world.schedule_crash_at(0, 0.0);
    world.schedule_crash_at(1, 0.0);
    const auto report = world.run();
    ASSERT_TRUE(report.ok());
    for (const auto* p : peers) EXPECT_LE(p->phases_run(), 2u);
    // Phase 1 share + the two dead blocks queried directly.
    EXPECT_LE(report.query_complexity, c.n / 8 + 2 * (c.n / 8) + 16);
  }
}

TEST(CrashMulti, PhaseDiagnosticsShrinkWithCrashes) {
  // More crashes -> more phases before the direct threshold is reached.
  auto phases_with = [](std::size_t crashes) {
    dr::Config c = cfg(1 << 14, 16, 0.75, 6);
    dr::World world(c, random_input(c.n, c.seed));
    std::vector<CrashMultiPeer*> peers;
    for (sim::PeerId id = 0; id < c.k; ++id) {
      auto p = std::make_unique<CrashMultiPeer>();
      peers.push_back(p.get());
      world.set_peer(id, std::move(p));
    }
    for (sim::PeerId id = 0; id < crashes; ++id) {
      world.schedule_crash_at(id, 0.0);
    }
    const auto report = world.run();
    EXPECT_TRUE(report.ok());
    std::size_t max_phase = 0;
    for (sim::PeerId id = crashes; id < 16; ++id) {
      max_phase = std::max(max_phase, peers[id]->phases_run());
    }
    return max_phase;
  };
  EXPECT_LT(phases_with(0), phases_with(12));
}

// ---- Owner shares against a per-bit reference. ----

/// owner[b] in phase r: the SegmentLayout block holding b in phase 1,
/// hashed_owner(b, r, k) after it.
std::vector<sim::PeerId> reference_owners(std::size_t n, std::size_t k,
                                          std::size_t r) {
  std::vector<sim::PeerId> owner(n, k);
  if (r == 1) {
    const SegmentLayout blocks(n, k);
    for (sim::PeerId q = 0; q < k; ++q) {
      const Interval block = blocks.bounds(q);
      for (std::size_t b = block.lo; b < block.hi; ++b) owner[b] = q;
    }
  } else {
    for (std::size_t b = 0; b < n; ++b) {
      owner[b] = crashm::hashed_owner(b, r, k);
    }
  }
  return owner;
}

TEST(CrashMultiOwnerLayout, SharesMatchPerBitReference) {
  struct Shape {
    std::size_t n, k;
  };
  // n % 64 != 0, k not dividing n, n < k (empty blocks), blocks ending on
  // word edges (4096 / 16), one peer, and Table 1's shape; then seeded ones.
  std::vector<Shape> shapes{{1000, 7}, {130, 3},  {50, 64},    {5, 8},
                            {64, 64},  {4096, 16}, {77, 1},    {16384, 96}};
  Rng rng(2024);
  for (int extra = 0; extra < 6; ++extra) {
    shapes.push_back({1 + static_cast<std::size_t>(rng.below(3000)),
                      1 + static_cast<std::size_t>(rng.below(200))});
  }
  for (const Shape& sh : shapes) {
    crashm::OwnerLayout layout(sh.n, sh.k);
    // Hashed phases out of order: each is built on first use.
    for (const std::size_t r : {std::size_t{1}, std::size_t{7},
                                std::size_t{2}, std::size_t{3}}) {
      const std::vector<sim::PeerId> owner = reference_owners(sh.n, sh.k, r);
      for (const double density : {1.0, 0.5, 0.05}) {
        const BitVec unknown =
            BitVec::generate(sh.n, [&] { return rng.flip(density); });
        const BitVec src = BitVec::generate(sh.n, [&] { return rng.flip(); });
        std::vector<BitVec> want(sh.k, BitVec(sh.n));
        for (std::size_t b = 0; b < sh.n; ++b) {
          ASSERT_LT(owner[b], sh.k);
          if (unknown.get(b)) want[owner[b]].set(b, true);
        }
        for (sim::PeerId q = 0; q < sh.k; ++q) {
          const SparseMask share = layout.share(unknown, r, q);
          ASSERT_EQ(share.to_dense(), want[q])
              << "n=" << sh.n << " k=" << sh.k << " r=" << r << " q=" << q;
          EXPECT_EQ(share, SparseMask(want[q]));

          BitVec values;
          want[q].for_each_set(
              [&](std::size_t b) { values.push_back(src.get(b)); });
          const MaskChunk chunk = MaskChunk::extract(src, share);
          EXPECT_EQ(chunk.values, values);
          EXPECT_EQ(chunk.hash(),
                    sim::payload_hash_mix(want[q].hash(), values.hash()));
        }
      }
    }
  }
}

TEST(CrashMultiOwnerLayout, Preconditions) {
  crashm::OwnerLayout layout(100, 8);
  EXPECT_THROW((void)layout.share(BitVec(99), 1, 0), contract_violation);
  EXPECT_THROW((void)layout.share(BitVec(100), 0, 0), contract_violation);
  EXPECT_THROW((void)layout.share(BitVec(100), 2, 8), contract_violation);
}

// Full sweep: (n, k, beta) x adversary style x seed.
using SweepParam = std::tuple<std::size_t, std::size_t, double, int>;
class CrashMultiSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrashMultiSweep, CorrectAndWithinBound) {
  const auto [n, k, beta, adversary] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s;
    s.cfg = cfg(n, k, beta, seed * 100 + adversary);
    s.honest = make_crash_multi();
    const std::size_t t = s.cfg.max_faulty();
    Rng rng(seed * 7 + static_cast<std::uint64_t>(adversary));
    switch (adversary) {
      case 0:
        s.crashes = adv::CrashPlan::silent_prefix(t);
        break;
      case 1:
        s.crashes = adv::CrashPlan::random(s.cfg, rng, t, 8.0);
        break;
      case 2:
        s.crashes = adv::CrashPlan::staggered(s.cfg, rng, t, 1.5);
        s.latency = seniority_latency();
        break;
      case 3:
        s.crashes = adv::CrashPlan::partial_broadcast(s.cfg, rng, t, 2);
        s.latency = uniform_latency(0.01, 1.0);
        break;
    }
    const auto report = expect_ok(s, "sweep");
    EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg))
        << s.cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrashMultiSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1 << 12, 1 << 14),
                       ::testing::Values<std::size_t>(8, 16, 32),
                       ::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace asyncdr::proto
