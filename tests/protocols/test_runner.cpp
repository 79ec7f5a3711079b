#include "protocols/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "support/bits.hpp"

namespace asyncdr::proto {
namespace {

using support::from_string;

TEST(RandomInput, DeterministicAndSeedSensitive) {
  const BitVec a = random_input(256, 7);
  EXPECT_EQ(a, random_input(256, 7));
  EXPECT_NE(a, random_input(256, 8));
  // Roughly balanced bits.
  EXPECT_GT(a.popcount(), 80u);
  EXPECT_LT(a.popcount(), 176u);
}

TEST(PickFaulty, DistinctWithinBudgetAndSalted) {
  const dr::Config cfg{.n = 8, .k = 12, .beta = 0.5, .message_bits = 8,
                       .seed = 3};
  const auto ids = pick_faulty(cfg, 6);
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ(std::set<sim::PeerId>(ids.begin(), ids.end()).size(), 6u);
  for (sim::PeerId id : ids) EXPECT_LT(id, 12u);
  EXPECT_EQ(pick_faulty(cfg, 6), ids);       // deterministic
  EXPECT_NE(pick_faulty(cfg, 6, 1), ids);    // salt changes the draw
  EXPECT_THROW(pick_faulty(cfg, 7), contract_violation);
}

TEST(RunScenario, RequiresHonestFactory) {
  Scenario s;
  s.cfg = dr::Config{.n = 16, .k = 3, .beta = 0.0, .message_bits = 8, .seed = 1};
  EXPECT_THROW(run_scenario(s), contract_violation);
}

TEST(RunScenario, RequiresByzFactoryWhenIdsGiven) {
  Scenario s;
  s.cfg = dr::Config{.n = 16, .k = 4, .beta = 0.25, .message_bits = 8, .seed = 1};
  s.honest = make_naive();
  s.byz_ids = {1};
  EXPECT_THROW(run_scenario(s), contract_violation);
}

TEST(RunScenario, ExplicitInputIsUsed) {
  Scenario s;
  s.cfg = dr::Config{.n = 8, .k = 2, .beta = 0.0, .message_bits = 8, .seed = 1};
  s.input = from_string("10100101");
  s.honest = make_naive();
  const auto report = run_scenario(s);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.outputs[0].to_string(), "10100101");
}

TEST(RunScenario, InputLengthMismatchRejected) {
  Scenario s;
  s.cfg = dr::Config{.n = 8, .k = 2, .beta = 0.0, .message_bits = 8, .seed = 1};
  s.input = BitVec(9);
  s.honest = make_naive();
  EXPECT_THROW(run_scenario(s), contract_violation);
}

TEST(RunScenario, EventBudgetSurfacesRunaway) {
  Scenario s;
  s.cfg = dr::Config{.n = 1 << 12, .k = 16, .beta = 0.5, .message_bits = 64,
                     .seed = 1};
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(8);
  s.max_events = 10;  // absurdly small budget
  const auto report = run_scenario(s);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_FALSE(report.ok());
}

TEST(Factories, ProduceDistinctInstances) {
  const dr::Config cfg{.n = 64, .k = 8, .beta = 0.25, .message_bits = 32,
                       .seed = 2};
  const PeerFactory factory = make_crash_multi();
  const auto a = factory(cfg, 0);
  const auto b = factory(cfg, 1);
  EXPECT_NE(a.get(), b.get());
}

TEST(Factories, AttackFamiliesConstruct) {
  const dr::Config cfg{.n = 64, .k = 16, .beta = 0.25, .message_bits = 32,
                       .seed = 2};
  for (const PeerFactory& factory :
       {make_silent_byz(), make_garbage_byz(),
        make_committee_liar(CommitteeLiarPeer::Mode::kRandom),
        make_vote_stuffer(2.0, 1), make_comb_stuffer(2.0, 1),
        make_equivocator(2.0), make_quorum_rusher(2.0)}) {
    EXPECT_NE(factory(cfg, 3), nullptr);
  }
}

TEST(LatencyFactories, ProducePolicies) {
  const dr::Config cfg{.n = 8, .k = 4, .beta = 0.0, .message_bits = 8,
                       .seed = 1};
  for (const LatencyFactory& factory :
       {uniform_latency(), fixed_latency(0.5), seniority_latency(),
        sender_delay_latency({0}, 1.0)}) {
    EXPECT_NE(factory(cfg), nullptr);
  }
}

}  // namespace
}  // namespace asyncdr::proto
