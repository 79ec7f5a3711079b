#include "protocols/byzmulti.hpp"

#include <gtest/gtest.h>

#include "harness.hpp"
#include "protocols/bounds.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

dr::Config rand_cfg(std::uint64_t seed, double beta = 0.125) {
  return cfg(1 << 12, 128, beta, seed, /*message_bits=*/4096);
}

TEST(MultiCycle, FaultFreeCorrect) {
  Scenario s;
  s.cfg = rand_cfg(1);
  s.honest = make_multi_cycle(2.0);
  const auto report = expect_ok(s, "fault-free");
  const auto params = RandParams::derive(s.cfg, 2.0);
  EXPECT_LE(report.query_complexity, bounds::multi_cycle_q(s.cfg, params));
  EXPECT_LT(report.query_complexity, s.cfg.n / 2);
}

TEST(MultiCycle, RunsLogManyCycles) {
  dr::Config c = rand_cfg(2);
  const RandParams params = RandParams::derive(c, 2.0);
  ASSERT_FALSE(params.naive_fallback);
  dr::World world(c, random_input(c.n, c.seed));
  for (sim::PeerId id = 0; id < c.k; ++id) {
    world.set_peer(id, std::make_unique<MultiCyclePeer>(
                           params, MultiCyclePeer::Schedule::kMultiCycle));
  }
  const auto report = world.run();
  ASSERT_TRUE(report.ok()) << report.to_string();

  // Expected cycle count: 1 + ceil(log2 s).
  std::size_t expected = 1;
  for (std::size_t s_count = params.segments; s_count > 1;
       s_count = (s_count + 1) / 2) {
    ++expected;
  }
  for (sim::PeerId id = 0; id < c.k; ++id) {
    const auto& peer = dynamic_cast<const MultiCyclePeer&>(world.peer(id));
    EXPECT_EQ(peer.cycles_run(), expected);
  }
}

TEST(MultiCycle, OneSegmentStillEndsWithADecidingCycle) {
  // Explicit parameters can ask for s = 1: the chain is then one segment
  // twice, like the 2-cycle schedule's, and every peer finishes in cycle 2.
  dr::Config c = rand_cfg(3);
  RandParams params = RandParams::derive(c, 2.0);
  params.segments = 1;
  params.tau = params.tau_for(1);
  dr::World world(c, random_input(c.n, c.seed));
  for (sim::PeerId id = 0; id < c.k; ++id) {
    world.set_peer(id, std::make_unique<MultiCyclePeer>(
                           params, MultiCyclePeer::Schedule::kMultiCycle));
  }
  const auto report = world.run();
  ASSERT_TRUE(report.ok()) << report.to_string();
  for (sim::PeerId id = 0; id < c.k; ++id) {
    const auto& peer = dynamic_cast<const MultiCyclePeer&>(world.peer(id));
    EXPECT_EQ(peer.cycles_run(), 2u);
  }
}

TEST(MultiCycle, NaiveFallback) {
  Scenario s;
  s.cfg = cfg(256, 8, 0.3, 3);
  s.honest = make_multi_cycle(2.0);
  const auto report = expect_ok(s, "fallback");
  EXPECT_EQ(report.query_complexity, 256u);
}

// Attack sweep.
class MultiCycleAttack : public ::testing::TestWithParam<int> {};

TEST_P(MultiCycleAttack, CorrectUnderAttack) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    Scenario s;
    s.cfg = rand_cfg(seed * 17 + static_cast<std::uint64_t>(GetParam()));
    s.honest = make_multi_cycle(2.0);
    switch (GetParam()) {
      case 0: s.byzantine = make_silent_byz(); break;
      case 1: s.byzantine = make_vote_stuffer(2.0, 0); break;
      case 2: s.byzantine = make_equivocator(2.0); break;
      case 3: s.byzantine = make_garbage_byz(); break;
      case 4: s.byzantine = make_comb_stuffer(2.0, 0); break;
      case 5: s.byzantine = make_quorum_rusher(2.0); break;
    }
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), seed);
    expect_ok(s, "attack sweep");
  }
}

INSTANTIATE_TEST_SUITE_P(Attacks, MultiCycleAttack,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(MultiCycle, VoteStufferEveryCycleStillCorrect) {
  // The stuffer fabricates for a target segment of EVERY cycle's layout;
  // honest peers must resolve conflicts at every level.
  Scenario s;
  s.cfg = rand_cfg(23);
  s.honest = make_multi_cycle(2.0);
  s.byzantine = make_vote_stuffer(2.0, 1);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), 9);
  expect_ok(s, "per-cycle stuffing");
}

TEST(MultiCycle, StragglerStart) {
  Scenario s;
  s.cfg = rand_cfg(29);
  s.honest = make_multi_cycle(2.0);
  s.start_times[0] = 12.0;
  expect_ok(s, "straggler");
}

TEST(MultiCycle, DeterministicGivenSeed) {
  auto run_once = [] {
    Scenario s;
    s.cfg = rand_cfg(31);
    s.honest = make_multi_cycle(2.0);
    s.byzantine = make_equivocator(2.0);
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
    return run_scenario(s);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.query_complexity, b.query_complexity);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace asyncdr::proto
