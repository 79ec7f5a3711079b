#include "protocols/byzmulti.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/check.hpp"
#include "harness.hpp"
#include "protocols/bounds.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

// Standard well-provisioned instance: k = 128, beta = 1/8 -> eta = 96.
dr::Config rand_cfg(std::uint64_t seed, double beta = 0.125) {
  return cfg(1 << 12, 128, beta, seed, /*message_bits=*/1024);
}

TEST(RandParams, DeriveCases) {
  // Plenty of honest peers: multiple segments.
  const auto p = RandParams::derive(rand_cfg(1), 2.0);
  EXPECT_FALSE(p.naive_fallback);
  EXPECT_GE(p.segments, 2u);
  EXPECT_GE(p.tau, 1u);
  EXPECT_EQ(p.eta, 96u);
  // tau ~ eta / (2 s).
  EXPECT_EQ(p.tau, p.tau_for(p.segments));

  // Majority Byzantine: case 3 fallback.
  EXPECT_TRUE(RandParams::derive(cfg(1024, 16, 0.5), 2.0).naive_fallback);
  // Tiny k: eta too small for two segments.
  EXPECT_TRUE(RandParams::derive(cfg(1024, 8, 0.25), 2.0).naive_fallback);
}

TEST(RandParams, TauForCoarserLayouts) {
  RandParams p;
  p.eta = 96;
  EXPECT_EQ(p.tau_for(6), 8u);
  EXPECT_EQ(p.tau_for(3), 16u);
  EXPECT_EQ(p.tau_for(1), 48u);
  EXPECT_EQ(p.tau_for(1000), 1u);  // floor at 1
  EXPECT_THROW((void)p.tau_for(0), contract_violation);
}

TEST(TwoCycle, FaultFreeCorrectAndCheap) {
  Scenario s;
  s.cfg = rand_cfg(1);
  s.honest = make_two_cycle(2.0);
  const auto report = expect_ok(s, "fault-free");
  const auto params = RandParams::derive(s.cfg, 2.0);
  EXPECT_LE(report.query_complexity, bounds::two_cycle_q(s.cfg, params));
  EXPECT_LT(report.query_complexity, s.cfg.n / 2);  // beats naive clearly
}

TEST(TwoCycle, NaiveFallbackQueriesEverything) {
  Scenario s;
  s.cfg = cfg(512, 8, 0.25, 3);  // eta too small -> fallback
  s.honest = make_two_cycle(2.0);
  const auto report = expect_ok(s, "fallback");
  EXPECT_EQ(report.query_complexity, 512u);
}

TEST(TwoCycle, VoteStuffingSurvivedViaDecisionTrees) {
  Scenario s;
  s.cfg = rand_cfg(5);
  s.honest = make_two_cycle(2.0);
  s.byzantine = make_vote_stuffer(2.0, /*target_segment=*/0);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
  const auto report = expect_ok(s, "vote stuffing");
  const auto params = RandParams::derive(s.cfg, 2.0);
  EXPECT_LE(report.query_complexity, bounds::two_cycle_q(s.cfg, params));
}

TEST(TwoCycle, VoteStuffingForcesSeparatorQueries) {
  // Run a world directly so peer internals are visible: the stuffed fake
  // (t >= tau supporters) must enter the candidate set and cost separator
  // queries, yet never win.
  dr::Config c = rand_cfg(7);
  const RandParams params = RandParams::derive(c, 2.0);
  ASSERT_GE(c.max_faulty(), params.tau) << "attack needs t >= tau to stuff";

  dr::World world(c, random_input(c.n, c.seed));
  const auto byz = pick_faulty(c, c.max_faulty());
  std::set<sim::PeerId> byz_set(byz.begin(), byz.end());
  for (sim::PeerId id = 0; id < c.k; ++id) {
    if (byz_set.contains(id)) {
      world.set_peer(id, std::make_unique<VoteStuffPeer>(params, 0));
      world.mark_faulty(id);
    } else {
      world.set_peer(id, std::make_unique<MultiCyclePeer>(
          params, MultiCyclePeer::Schedule::kTwoCycle));
    }
  }
  const auto report = world.run();
  ASSERT_TRUE(report.ok()) << report.to_string();

  std::size_t peers_with_tree_queries = 0;
  for (sim::PeerId id = 0; id < c.k; ++id) {
    if (byz_set.contains(id)) continue;
    const auto& peer = dynamic_cast<const MultiCyclePeer&>(world.peer(id));
    if (peer.tree_queries() > 0) ++peers_with_tree_queries;
  }
  // Every honest peer that did not itself pick segment 0 had to resolve the
  // stuffed conflict with at least one separator query.
  EXPECT_GT(peers_with_tree_queries, (c.k - c.max_faulty()) / 2);
}

/// Calls `check` on every honest peer of `s` after the run.
void for_each_honest(
    Scenario& s,
    std::function<void(sim::PeerId, const MultiCyclePeer&)> check) {
  s.post_run = [&s, check](dr::World& world, const dr::RunReport&) {
    for (sim::PeerId id = 0; id < s.cfg.k; ++id) {
      if (world.is_faulty(id)) continue;
      check(id, dynamic_cast<const MultiCyclePeer&>(world.peer(id)));
    }
  };
}

TEST(TwoCycle, RunsTwoCyclesUnderProtocol4PhaseNames) {
  Scenario s;
  s.cfg = rand_cfg(3);
  s.honest = make_two_cycle(2.0);
  std::size_t peers = 0;
  for_each_honest(s, [&](sim::PeerId, const MultiCyclePeer& peer) {
    EXPECT_EQ(peer.cycles_run(), 2u);
    ++peers;
  });
  const auto report = expect_ok(s, "two cycles");
  EXPECT_EQ(peers, s.cfg.k);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].name, "cycle1:sample-report");
  EXPECT_EQ(report.phases[1].name, "cycle2:decide");
}

TEST(TwoCycle, CycleOneFiltersWithTheConfiguredTau) {
  // A tau above k admits no candidate: every segment but the peer's own
  // pick falls back to a full query, however many peers reported it.
  // (tau_for(s) would admit the honest strings.)
  Scenario s;
  s.cfg = rand_cfg(4);
  RandParams params = RandParams::derive(s.cfg, 2.0);
  ASSERT_LE(params.tau, params.tau_for(params.segments));
  params.tau = s.cfg.k + 1;
  s.honest = make_two_cycle_with(params);
  for_each_honest(s, [&](sim::PeerId, const MultiCyclePeer& peer) {
    EXPECT_EQ(peer.fallback_segments(), params.segments - 1);
    EXPECT_EQ(peer.tree_queries(), 0u);
  });
  const auto report = expect_ok(s, "tau above k");
  EXPECT_EQ(report.query_complexity, s.cfg.n);
}

TEST(TwoCycle, ReportsHeardBeforeStartAreKept) {
  // Peer 0 starts after every other report has reached it. The reports it
  // buffered count toward its quorum and feed its candidate sets, so it
  // resolves segments by their strings, not by fallback queries.
  Scenario s;
  s.cfg = rand_cfg(13);
  s.honest = make_two_cycle(2.0);
  s.start_times[0] = 8.0;
  bool checked = false;
  for_each_honest(s, [&](sim::PeerId id, const MultiCyclePeer& peer) {
    if (id != 0) return;
    EXPECT_EQ(peer.fallback_segments(), 0u);
    checked = true;
  });
  expect_ok(s, "late starter");
  EXPECT_TRUE(checked);
}

// Attack sweep across seeds.
class TwoCycleAttack : public ::testing::TestWithParam<int> {};

TEST_P(TwoCycleAttack, CorrectUnderAttack) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s;
    s.cfg = rand_cfg(seed * 13 + static_cast<std::uint64_t>(GetParam()));
    s.honest = make_two_cycle(2.0);
    switch (GetParam()) {
      case 0: s.byzantine = make_silent_byz(); break;
      case 1: s.byzantine = make_vote_stuffer(2.0, 0); break;
      case 2: s.byzantine = make_vote_stuffer(2.0, 1); break;
      case 3: s.byzantine = make_equivocator(2.0); break;
      case 4: s.byzantine = make_garbage_byz(); break;
      case 5: s.byzantine = make_comb_stuffer(2.0, 0); break;
      case 6: s.byzantine = make_quorum_rusher(2.0); break;
    }
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), seed);
    expect_ok(s, "attack sweep");
  }
}

INSTANTIATE_TEST_SUITE_P(Attacks, TwoCycleAttack,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(TwoCycle, AdversarialSchedulingDelaysHonest) {
  // Delay a third of the honest peers: quorum still reachable, whp intact.
  Scenario s;
  s.cfg = rand_cfg(11);
  s.honest = make_two_cycle(2.0);
  s.byzantine = make_vote_stuffer(2.0, 0);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
  std::vector<sim::PeerId> slow;
  for (sim::PeerId id = 0; id < 32; ++id) {
    if (std::find(s.byz_ids.begin(), s.byz_ids.end(), id) == s.byz_ids.end()) {
      slow.push_back(id);
    }
  }
  s.latency = sender_delay_latency(slow, 1.0, 0.05);
  expect_ok(s, "delayed honest third");
}

TEST(TwoCycle, StaggeredStarts) {
  Scenario s;
  s.cfg = rand_cfg(13);
  s.honest = make_two_cycle(2.0);
  s.start_times[0] = 8.0;
  s.start_times[64] = 3.0;
  expect_ok(s, "staggered starts");
}

}  // namespace
}  // namespace asyncdr::proto
