#include "adversary/latency.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace asyncdr::adv {
namespace {

sim::Message msg(sim::PeerId from, sim::PeerId to) {
  sim::Message m;
  m.from = from;
  m.to = to;
  return m;
}

TEST(UniformLatency, StaysInRangeAndIsSeeded) {
  UniformLatency a(Rng(5), 0.2, 0.8);
  UniformLatency b(Rng(5), 0.2, 0.8);
  for (int i = 0; i < 200; ++i) {
    const sim::Time t = a.propagation(msg(0, 1));
    EXPECT_GE(t, 0.2);
    EXPECT_LE(t, 0.8);
    EXPECT_DOUBLE_EQ(t, b.propagation(msg(0, 1)));  // same seed, same stream
  }
}

TEST(UniformLatency, RejectsBadRange) {
  EXPECT_THROW(UniformLatency(Rng(1), 0.0, 0.5), contract_violation);
  EXPECT_THROW(UniformLatency(Rng(1), 0.6, 0.5), contract_violation);
  EXPECT_THROW(UniformLatency(Rng(1), 0.5, 1.5), contract_violation);
}

TEST(SenderDelayLatency, DelaysOnlyTheNamedSenders) {
  SenderDelayLatency policy({1, 3}, 5.0, 0.1);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(1, 0)), 5.0);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(3, 2)), 5.0);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(0, 1)), 0.1);  // TO a slow sender
  EXPECT_DOUBLE_EQ(policy.propagation(msg(2, 0)), 0.1);
}

TEST(SenderDelayLatency, SlowIsTheConfiguredDelay) {
  SenderDelayLatency policy({0}, 9.0, 0.5);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(0, 1)), 9.0);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(1, 0)), 0.5);
  EXPECT_THROW(SenderDelayLatency({0}, 0.1, 0.5), contract_violation);
}

TEST(SeniorityLatency, HigherIdsAreFaster) {
  SeniorityLatency policy(8, 0.1, 1.0);
  sim::Time prev = 2.0;
  for (sim::PeerId from = 0; from < 8; ++from) {
    const sim::Time t = policy.propagation(msg(from, 0));
    EXPECT_LT(t, prev);
    EXPECT_GE(t, 0.1);
    EXPECT_LE(t, 1.0);
    prev = t;
  }
}

TEST(CallbackLatency, ForwardsAndValidates) {
  CallbackLatency policy([](const sim::Message& m) {
    return m.from == 0 ? 3.0 : 0.25;
  });
  EXPECT_DOUBLE_EQ(policy.propagation(msg(0, 1)), 3.0);
  EXPECT_DOUBLE_EQ(policy.propagation(msg(1, 0)), 0.25);
  CallbackLatency bad([](const sim::Message&) { return 0.0; });
  EXPECT_THROW(bad.propagation(msg(0, 1)), contract_violation);
  EXPECT_THROW(CallbackLatency(nullptr), contract_violation);
}

}  // namespace
}  // namespace asyncdr::adv
