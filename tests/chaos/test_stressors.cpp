// Beyond-model stressors: duplication and burst holds at the Network layer,
// and protocol-level tolerance of both under full scenarios.
#include "chaos/stressors.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "protocols/runner.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace asyncdr::chaos {
namespace {

struct TestPayload final : sim::Payload {
  explicit TestPayload(int tag = 0) : tag_(tag) {}
  std::size_t size_bits() const override { return 8; }
  std::string type_name() const override { return "TestPayload"; }
  int tag_;
};

struct Recorder final : sim::Receiver {
  void deliver(const sim::Message& msg) override {
    tags.push_back(static_cast<const TestPayload&>(*msg.payload).tag_);
  }
  std::vector<int> tags;
};

struct NetFixture : ::testing::Test {
  NetFixture() : net(engine, 3, 64) {
    for (sim::PeerId i = 0; i < 3; ++i) net.attach(i, &peers[i]);
  }
  sim::Engine engine;
  sim::Network net;
  Recorder peers[3];
};

struct AlwaysDuplicate final : sim::DeliveryStressor {
  std::size_t copies(const sim::Message&) override { return 2; }
  sim::Time extra_delay(const sim::Message&, std::size_t copy) override {
    return copy == 0 ? 0.0 : 0.5;
  }
};

TEST_F(NetFixture, StressorDuplicatesDeliveriesButChargesSenderOnce) {
  net.set_delivery_stressor(std::make_unique<AlwaysDuplicate>());
  net.send(0, 1, std::make_shared<TestPayload>(7));
  engine.run();
  // Two deliveries of the same message...
  ASSERT_EQ(peers[1].tags.size(), 2u);
  EXPECT_EQ(peers[1].tags[0], 7);
  EXPECT_EQ(peers[1].tags[1], 7);
  // ...but the retransmission is the network's fault, not the sender's: the
  // sender's message-complexity accounting is charged exactly once.
  EXPECT_EQ(net.sent_units(0), 1u);
  // The duplicate trails the primary.
  EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

struct HoldFirst final : sim::DeliveryStressor {
  std::size_t copies(const sim::Message&) override { return 1; }
  sim::Time extra_delay(const sim::Message&, std::size_t) override {
    return first_seen++ == 0 ? 2.0 : 0.0;
  }
  int first_seen = 0;
};

TEST_F(NetFixture, BurstHoldReordersAcrossLaterTraffic) {
  net.set_delivery_stressor(std::make_unique<HoldFirst>());
  net.send(0, 1, std::make_shared<TestPayload>(1));
  net.send(0, 1, std::make_shared<TestPayload>(2));
  engine.run();
  // The held first message (arrival 1 + hold 2 = 3) lands after the second
  // (departs 1, arrives 2): a burst reorder the base model never produces.
  ASSERT_EQ(peers[1].tags.size(), 2u);
  EXPECT_EQ(peers[1].tags[0], 2);
  EXPECT_EQ(peers[1].tags[1], 1);
}

struct Replicate final : sim::DeliveryStressor {
  explicit Replicate(std::size_t n) : n_(n) {}
  std::size_t copies(const sim::Message&) override { return n_; }
  sim::Time extra_delay(const sim::Message&, std::size_t) override {
    return 0.0;
  }
  std::size_t n_;
};

// Regression: per-link in-flight counters are 64-bit. A replication
// stressor multiplies copies per message far past what a 32-bit assumption
// tolerates in aggregate; the counters must track every scheduled copy up
// and back down exactly.
TEST_F(NetFixture, HighCopyCountReplicationKeepsCountersExact) {
  static_assert(
      std::is_same_v<decltype(net.in_flight(0, 1)), std::uint64_t>,
      "in-flight counters must be 64-bit for replication stressors");
  static_assert(std::is_same_v<decltype(net.total_in_flight()), std::uint64_t>,
                "total in-flight must be 64-bit");
  constexpr std::size_t kCopies = 1u << 17;  // 131072 copies of one send
  net.set_delivery_stressor(std::make_unique<Replicate>(kCopies));
  net.send(0, 1, std::make_shared<TestPayload>(9));
  EXPECT_EQ(net.in_flight(0, 1), kCopies);
  EXPECT_EQ(net.total_in_flight(), kCopies);
  // The sender is still charged once: copies are the adversary's forgeries.
  EXPECT_EQ(net.sent_units(0), 1u);
  engine.run();
  // Every copy is delivered, all of them to the one recipient.
  EXPECT_EQ(peers[1].tags.size(), kCopies);
  EXPECT_TRUE(peers[0].tags.empty());
  EXPECT_TRUE(peers[2].tags.empty());
  EXPECT_EQ(net.in_flight(0, 1), 0u);
  EXPECT_EQ(net.total_in_flight(), 0u);
}

// Same stressor through the bucketed broadcast path: all same-arrival
// copies across all recipients ride one scheduled event per bucket, and the
// counters still reconcile.
TEST_F(NetFixture, HighCopyCountReplicationThroughBroadcastBuckets) {
  constexpr std::size_t kCopies = 4096;
  net.set_delivery_stressor(std::make_unique<Replicate>(kCopies));
  net.broadcast(0, std::make_shared<TestPayload>(5));
  EXPECT_EQ(net.total_in_flight(), 2 * kCopies);  // two recipients
  // Zero extra delay: every copy shares one arrival time -> one bucket.
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(peers[1].tags.size(), kCopies);
  EXPECT_EQ(peers[2].tags.size(), kCopies);
  EXPECT_EQ(net.total_in_flight(), 0u);
}

TEST(ChaosStressorKnobs, RejectsInvalidProbabilities) {
  EXPECT_THROW(ChaosStressor(Rng(1), {.duplicate_prob = 1.5}),
               contract_violation);
  EXPECT_THROW(ChaosStressor(Rng(1), {.burst_prob = -0.1}),
               contract_violation);
  EXPECT_THROW(ChaosStressor(Rng(1), {.hold_max = -1.0}), contract_violation);
}

proto::Scenario committee_scenario(std::size_t n, std::size_t k, double beta,
                                   std::uint64_t seed) {
  proto::Scenario s;
  s.cfg.n = n;
  s.cfg.k = k;
  s.cfg.beta = beta;
  s.cfg.seed = seed;
  s.cfg.message_bits = 64;
  s.honest = proto::make_committee();
  return s;
}

TEST(ChaosStressorProtocol, CommitteeToleratesUniversalDuplication) {
  proto::Scenario s = committee_scenario(256, 9, 0.3, 11);
  s.stressor = make_chaos_stressor(
      {.duplicate_prob = 1.0, .burst_prob = 0.0, .hold_max = 2.0});
  const dr::RunReport report = proto::run_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChaosStressorProtocol, DuplicatedLiarVotesDoNotDoubleCount) {
  // t = 1, so the accept threshold is 2: if a duplicated delivery of the
  // liar's vote were counted twice, one liar could decide wrong bits alone.
  proto::Scenario s = committee_scenario(128, 9, 0.12, 23);
  s.byzantine =
      proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = {2};
  s.stressor = make_chaos_stressor(
      {.duplicate_prob = 1.0, .burst_prob = 0.0, .hold_max = 2.0});
  const dr::RunReport report = proto::run_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChaosStressorProtocol, CommitteeSurvivesBurstReordering) {
  proto::Scenario s = committee_scenario(256, 7, 0.25, 31);
  s.stressor = make_chaos_stressor(
      {.duplicate_prob = 0.3, .burst_prob = 0.6, .hold_max = 3.0});
  const dr::RunReport report = proto::run_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace asyncdr::chaos
