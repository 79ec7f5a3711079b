#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/mem.hpp"
#include "sim/engine.hpp"

namespace asyncdr::sim {
namespace {

struct TestPayload final : Payload {
  explicit TestPayload(std::size_t bits = 8, int tag = 0)
      : bits_(bits), tag_(tag) {}
  std::size_t size_bits() const override { return bits_; }
  std::string type_name() const override { return "TestPayload"; }
  std::size_t bits_;
  int tag_;
};

struct Recorder final : Receiver {
  void deliver(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

struct Fixture : ::testing::Test {
  Fixture() : net(engine, 4, 64) {
    for (PeerId i = 0; i < 4; ++i) net.attach(i, &peers[i]);
  }
  Engine engine;
  Network net;
  Recorder peers[4];
};

TEST_F(Fixture, DeliversWithDefaultUnitLatency) {
  net.send(0, 1, std::make_shared<TestPayload>());
  engine.run();
  ASSERT_EQ(peers[1].received.size(), 1u);
  EXPECT_EQ(peers[1].received[0].from, 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST_F(Fixture, BroadcastSkipsSelfAndOrdersByID) {
  net.broadcast(2, std::make_shared<TestPayload>());
  engine.run();
  EXPECT_EQ(peers[0].received.size(), 1u);
  EXPECT_EQ(peers[1].received.size(), 1u);
  EXPECT_TRUE(peers[2].received.empty());
  EXPECT_EQ(peers[3].received.size(), 1u);
}

TEST_F(Fixture, CrashedSenderSendsNothing) {
  net.crash(0);
  net.send(0, 1, std::make_shared<TestPayload>());
  engine.run();
  EXPECT_TRUE(peers[1].received.empty());
  EXPECT_EQ(net.sent_units(0), 0u);
}

TEST_F(Fixture, CrashedReceiverDropsInFlight) {
  net.send(0, 1, std::make_shared<TestPayload>());
  engine.schedule_at(0.5, [&] { net.crash(1); });
  engine.run();
  EXPECT_TRUE(peers[1].received.empty());
  // The send itself still counts (it was made by a live peer).
  EXPECT_EQ(net.sent_units(0), 1u);
}

TEST_F(Fixture, MessagesSentBeforeCrashStillDeliver) {
  net.send(0, 1, std::make_shared<TestPayload>());
  engine.schedule_at(0.5, [&] { net.crash(0); });
  engine.run();
  EXPECT_EQ(peers[1].received.size(), 1u);
}

TEST_F(Fixture, PreSendHookCanCrashMidBroadcast) {
  int allowed = 2;
  net.set_pre_send_hook([&](const Message& msg) {
    if (msg.from == 0 && allowed-- == 0) net.crash(0);
  });
  net.broadcast(0, std::make_shared<TestPayload>());
  engine.run();
  // Only the first two sends (to peers 1 and 2) went out.
  EXPECT_EQ(peers[1].received.size(), 1u);
  EXPECT_EQ(peers[2].received.size(), 1u);
  EXPECT_TRUE(peers[3].received.empty());
}

TEST_F(Fixture, UnitMessageAccounting) {
  EXPECT_EQ(net.unit_messages(TestPayload(1)), 1u);
  EXPECT_EQ(net.unit_messages(TestPayload(64)), 1u);
  EXPECT_EQ(net.unit_messages(TestPayload(65)), 2u);
  EXPECT_EQ(net.unit_messages(TestPayload(640)), 10u);
  EXPECT_EQ(net.unit_messages(TestPayload(0)), 1u);  // floor of 1
}

TEST_F(Fixture, LargePayloadSerializesOnLink) {
  // 10 units on one link: transmission inflates arrival beyond latency 1.
  net.send(0, 1, std::make_shared<TestPayload>(640));
  engine.run();
  ASSERT_EQ(peers[1].received.size(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);  // 9 units of transmission + 1 latency
  EXPECT_EQ(net.sent_units(0), 10u);
}

TEST_F(Fixture, BackToBackUnitMessagesQueuePerLink) {
  net.send(0, 1, std::make_shared<TestPayload>());
  net.send(0, 1, std::make_shared<TestPayload>());
  net.send(0, 2, std::make_shared<TestPayload>());  // different link: parallel
  engine.run();
  ASSERT_EQ(peers[1].received.size(), 2u);
  EXPECT_DOUBLE_EQ(peers[1].received[1].sent_at, 0.0);
  // Second message on the 0->1 link departs at t=1, arrives t=2.
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(peers[2].received.size(), 1u);
}

TEST_F(Fixture, ObserverSeesSendsDeliveriesDrops) {
  struct Obs final : NetworkObserver {
    void on_send(const Message&, std::size_t units) override { sends += units; }
    void on_deliver(const Message&) override { ++delivers; }
    void on_drop(const Message&) override { ++drops; }
    std::size_t sends = 0, delivers = 0, drops = 0;
  } obs;
  net.set_observer(&obs);
  net.send(0, 1, std::make_shared<TestPayload>());
  net.send(0, 2, std::make_shared<TestPayload>());
  engine.schedule_at(0.5, [&] { net.crash(2); });
  engine.run();
  EXPECT_EQ(obs.sends, 2u);
  EXPECT_EQ(obs.delivers, 1u);
  EXPECT_EQ(obs.drops, 1u);
}

TEST_F(Fixture, CustomLatencyPolicyApplied) {
  net.set_latency_policy(std::make_unique<FixedLatency>(0.25));
  net.send(0, 1, std::make_shared<TestPayload>());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 0.25);
}

TEST_F(Fixture, CrashedCount) {
  EXPECT_EQ(net.crashed_count(), 0u);
  net.crash(1);
  net.crash(3);
  EXPECT_EQ(net.crashed_count(), 2u);
  EXPECT_TRUE(net.is_crashed(1));
  EXPECT_FALSE(net.is_crashed(0));
}

struct PairingObserver final : NetworkObserver {
  void on_send(const Message& msg, std::size_t) override {
    sent_ids.push_back(msg.id);
  }
  void on_deliver(const Message& msg) override { settled_ids.push_back(msg.id); }
  void on_drop(const Message& msg) override { settled_ids.push_back(msg.id); }
  std::vector<std::uint64_t> sent_ids;
  std::vector<std::uint64_t> settled_ids;
};

// Regression: a send the pre-send hook kills used to emit on_drop with no
// prior on_send AND burn a message id, leaving phantom nodes in the causal
// DAG. A killed send must now be invisible: no id consumed, no observer
// event of either kind.
TEST_F(Fixture, HookCrashedSendConsumesNoIdAndEmitsNothing) {
  PairingObserver obs;
  net.set_observer(&obs);
  net.set_pre_send_hook([&](const Message& msg) {
    if (msg.from == 0) net.crash(0);
  });
  net.send(0, 1, std::make_shared<TestPayload>());  // killed by the hook
  net.send(2, 3, std::make_shared<TestPayload>());  // goes through
  engine.run();
  ASSERT_EQ(obs.sent_ids.size(), 1u);
  EXPECT_EQ(obs.sent_ids[0], 0u);  // the killed send did not burn id 0
  EXPECT_EQ(obs.settled_ids, obs.sent_ids);
  EXPECT_TRUE(peers[1].received.empty());
  ASSERT_EQ(peers[3].received.size(), 1u);
  EXPECT_EQ(peers[3].received[0].id, 0u);
}

TEST_F(Fixture, MidBroadcastHookCrashKeepsIdsConsecutive) {
  PairingObserver obs;
  net.set_observer(&obs);
  int allowed = 2;
  net.set_pre_send_hook([&](const Message& msg) {
    if (msg.from == 0 && allowed-- == 0) net.crash(0);
  });
  net.broadcast(0, std::make_shared<TestPayload>());
  net.send(1, 2, std::make_shared<TestPayload>());
  engine.run();
  // Broadcast committed sends to peers 1 and 2 (ids 0, 1); the killed third
  // send left no gap, so peer 1's follow-up send took id 2.
  EXPECT_EQ(obs.sent_ids, (std::vector<std::uint64_t>{0, 1, 2}));
  std::vector<std::uint64_t> settled = obs.settled_ids;
  std::sort(settled.begin(), settled.end());
  EXPECT_EQ(settled, obs.sent_ids);
}

TEST_F(Fixture, BroadcastBucketsSameArrivalIntoOneEvent) {
  net.set_latency_policy(std::make_unique<FixedLatency>(0.5));
  net.broadcast(0, std::make_shared<TestPayload>());
  // All three recipients share arrival time 0.5: one bucketed event.
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(peers[1].received.size(), 1u);
  EXPECT_EQ(peers[2].received.size(), 1u);
  EXPECT_EQ(peers[3].received.size(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.5);
}

TEST_F(Fixture, InFlightAccountingAndBusyLinks) {
  EXPECT_EQ(net.total_in_flight(), 0u);
  EXPECT_EQ(net.active_links(), 0u);
  net.send(0, 1, std::make_shared<TestPayload>());
  net.send(0, 1, std::make_shared<TestPayload>());
  net.send(2, 3, std::make_shared<TestPayload>());
  EXPECT_EQ(net.in_flight(0, 1), 2u);
  EXPECT_EQ(net.in_flight(2, 3), 1u);
  EXPECT_EQ(net.in_flight(1, 0), 0u);
  EXPECT_EQ(net.total_in_flight(), 3u);
  EXPECT_EQ(net.active_links(), 2u);
  const std::vector<Network::BusyLink> busy = net.busy_links();
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_EQ(busy[0].from, 0u);
  EXPECT_EQ(busy[0].to, 1u);
  EXPECT_EQ(busy[0].in_flight, 2u);
  EXPECT_EQ(busy[1].from, 2u);
  EXPECT_EQ(busy[1].to, 3u);
  engine.run();
  EXPECT_EQ(net.total_in_flight(), 0u);
  EXPECT_TRUE(net.busy_links().empty());
  // Drained links stay counted: active_links is ever-carried-traffic.
  EXPECT_EQ(net.active_links(), 2u);

  // A broadcast-only sender's links are resolved through its shared Link.
  net.broadcast(3, std::make_shared<TestPayload>());
  EXPECT_EQ(net.in_flight(3, 0), 1u);
  EXPECT_EQ(net.in_flight(3, 3), 0u);
  EXPECT_EQ(net.active_links(), 5u);
  const std::vector<Network::BusyLink> fanout = net.busy_links();
  ASSERT_EQ(fanout.size(), 3u);
  for (PeerId to = 0; to < 3; ++to) {
    EXPECT_EQ(fanout[to].from, 3u);
    EXPECT_EQ(fanout[to].to, to);
    EXPECT_EQ(fanout[to].in_flight, 1u);
  }
  engine.run();
  EXPECT_TRUE(net.busy_links().empty());
}

// ---- Broadcast waves (several distinct arrival times) ----

/// Recipient r hears any message 0.25 * (r + 1) after it is sent, so a
/// broadcast from peer 0 in the 4-peer fixture arrives in three buckets.
struct ByRecipientLatency final : LatencyPolicy {
  Time propagation(const Message& msg) override {
    return 0.25 * static_cast<Time>(msg.to + 1);
  }
};

struct CountingObserver final : NetworkObserver {
  void on_deliver(const Message&) override { ++delivers; }
  void on_drop(const Message&) override { ++drops; }
  std::size_t delivers = 0, drops = 0;
};

// A wave keeps only its next bucket in the engine heap, but pending()
// counts every bucket still to fire (the rest are reserved seqs), exactly
// as the eager one-event-per-bucket schedule did.
TEST_F(Fixture, BroadcastWavePendsOneEventPerDistinctArrival) {
  obs::MemRegistry mem;
  obs::MemPool& fanout = mem.pool("sim.network.fanout");
  net.set_mem_pools(nullptr, &fanout, nullptr);
  net.set_latency_policy(std::make_unique<ByRecipientLatency>());
  net.broadcast(0, std::make_shared<TestPayload>());
  EXPECT_EQ(engine.pending(), 3u);
  EXPECT_GT(fanout.current(), 0u);  // the in-flight wave is charged
  for (std::size_t left = 3; left > 0; --left) {
    ASSERT_EQ(engine.pending(), left);
    ASSERT_TRUE(engine.step());
    EXPECT_EQ(engine.pending(), left - 1);
    // Bucket 4 - left (recipient 4 - left) has just been delivered.
    EXPECT_EQ(peers[4 - left].received.size(), 1u);
    EXPECT_DOUBLE_EQ(engine.now(), 0.25 * static_cast<Time>(5 - left));
    EXPECT_EQ(net.total_in_flight(), left - 1);
  }
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(fanout.current(), 0u);  // credited when the last bucket fired
  EXPECT_GT(fanout.peak(), 0u);
  EXPECT_EQ(net.payload_bank().live_refs(), 0u);
}

TEST_F(Fixture, PendingEventsCountsExactlyTheNetworksOwnEvents) {
  // A unicast copy, a one-time bucket and each reserved wave bucket count
  // once until they fire; an event the network did not schedule never does.
  net.send(0, 1, std::make_shared<TestPayload>());
  net.broadcast(2, std::make_shared<TestPayload>());  // one arrival time
  EXPECT_EQ(net.pending_events(), 2u);
  net.set_latency_policy(std::make_unique<ByRecipientLatency>());
  net.broadcast(0, std::make_shared<TestPayload>());  // three arrival times
  EXPECT_EQ(net.pending_events(), 5u);
  EXPECT_EQ(net.pending_events(), engine.pending());
  bool foreign_fired = false;
  engine.schedule_at(0.6, [&] { foreign_fired = true; });
  while (engine.step()) {
    EXPECT_EQ(net.pending_events() + (foreign_fired ? 0u : 1u),
              engine.pending());
  }
  EXPECT_TRUE(foreign_fired);
  EXPECT_EQ(net.pending_events(), 0u);
}

TEST_F(Fixture, RecipientCrashedMidWaveLosesOnlyItsOwnCopy) {
  CountingObserver obs;
  net.set_observer(&obs);
  net.set_latency_policy(std::make_unique<ByRecipientLatency>());
  net.broadcast(0, std::make_shared<TestPayload>());
  // Between bucket 1 (t=0.5) and bucket 2 (t=0.75): crash recipient 3,
  // whose bucket comes last.
  engine.schedule_at(0.6, [&] { net.crash(3); });
  engine.run();
  EXPECT_EQ(peers[1].received.size(), 1u);
  EXPECT_EQ(peers[2].received.size(), 1u);
  EXPECT_TRUE(peers[3].received.empty());
  EXPECT_EQ(obs.delivers, 2u);
  EXPECT_EQ(obs.drops, 1u);
  EXPECT_EQ(net.total_in_flight(), 0u);
  EXPECT_EQ(net.in_flight(0, 3), 0u);
}

// A run cut off mid-wave: the Network's teardown audit (which aborts on a
// mismatch) must find the wave's undelivered copies explained, and the
// engine, destroyed after the Network, frees the wave without touching it.
TEST(NetworkWave, CutoffMidWavePassesTeardownAudit) {
  Engine engine;
  Recorder peers[4];
  {
    Network net(engine, 4, 64);
    for (PeerId i = 0; i < 4; ++i) net.attach(i, &peers[i]);
    net.set_latency_policy(std::make_unique<ByRecipientLatency>());
    net.broadcast(0, std::make_shared<TestPayload>());
    const Engine::RunResult cut = engine.run(1);
    EXPECT_TRUE(cut.budget_exhausted);
    EXPECT_EQ(engine.pending(), 2u);
    EXPECT_EQ(net.total_in_flight(), 2u);
    EXPECT_EQ(net.payload_bank().live_refs(), net.total_in_flight());
  }
  EXPECT_EQ(peers[1].received.size(), 1u);
  EXPECT_EQ(engine.pending(), 2u);
}

// ---- revive() semantics (regression: ghost reservations / stale inbox) ----

// Regression: revive() used to clear only crashed_[id]. The dead
// incarnation's Link::next_free reservations survived, so the revived
// peer's first send queued behind ghost traffic (here: two 10-unit
// payloads reserving the 0->1 link until t=20). The fresh send at t=2 must
// arrive at t=3, not t=21.
TEST_F(Fixture, RevivedSenderNotQueuedBehindGhostReservations) {
  net.send(0, 1, std::make_shared<TestPayload>(640));  // link busy to t=10
  net.send(0, 1, std::make_shared<TestPayload>(640));  // ...and to t=20
  engine.schedule_at(0.5, [&] { net.crash(0); });
  engine.schedule_at(2.0, [&] {
    net.revive(0);
    net.send(0, 1, std::make_shared<TestPayload>());
  });
  engine.run();
  // In-flight pre-crash copies still settle (no counter underflow), so
  // peer 1 sees all three — with the fresh send FIRST.
  ASSERT_EQ(peers[1].received.size(), 3u);
  EXPECT_DOUBLE_EQ(peers[1].received[0].sent_at, 2.0);
  EXPECT_EQ(net.total_in_flight(), 0u);
}

// Lazy rows: a broadcast-only sender keeps its link state in the shared
// Link and allocates nothing more; its first divergence (here a unicast)
// charges exactly one k-entry row; revive() clears the reservations held
// in the shared Link before divergence and in the row after it.
TEST_F(Fixture, SenderRowIsAllocatedOnFirstDivergence) {
  obs::MemRegistry mem;
  obs::MemPool& links = mem.pool("sim.network.links");
  net.set_mem_pools(&links, nullptr, nullptr);
  const std::uint64_t shells = links.current();

  net.broadcast(0, std::make_shared<TestPayload>(640));  // shared until t=10
  engine.schedule_at(0.5, [&] { net.crash(0); });
  engine.schedule_at(2.0, [&] {
    net.revive(0);
    net.broadcast(0, std::make_shared<TestPayload>());
  });
  engine.run();
  EXPECT_EQ(links.current(), shells);  // broadcast-only: no row
  // The fresh wave does not queue behind the dead incarnation's fan-out;
  // the ghost wave still settles.
  ASSERT_EQ(peers[1].received.size(), 2u);
  EXPECT_DOUBLE_EQ(peers[1].received[0].sent_at, 2.0);
  EXPECT_DOUBLE_EQ(peers[1].received[1].sent_at, 0.0);

  // t=10: the unicast diverges sender 0; its next broadcast reserves the
  // row links individually (0->1 queues behind the unicast).
  net.send(0, 1, std::make_shared<TestPayload>(640));
  EXPECT_EQ(links.current(),
            shells + obs::modeled_alloc_bytes(4 * sizeof(Network::Link)));
  net.broadcast(0, std::make_shared<TestPayload>(640));
  engine.schedule_at(10.5, [&] { net.crash(0); });
  engine.schedule_at(12.0, [&] {
    net.revive(0);
    net.broadcast(0, std::make_shared<TestPayload>());
  });
  engine.run();
  EXPECT_EQ(links.current(),
            shells + obs::modeled_alloc_bytes(4 * sizeof(Network::Link)));
  ASSERT_EQ(peers[2].received.size(), 4u);
  EXPECT_DOUBLE_EQ(peers[2].received[2].sent_at, 12.0);  // row cleared
  EXPECT_DOUBLE_EQ(engine.now(), 30.0);  // 0->1: unicast, then the wave
  EXPECT_EQ(net.total_in_flight(), 0u);
}

// Revival starts a fresh incarnation with a fresh inbox: every copy sent
// strictly before the revival instant is dropped on arrival — whether the
// peer was up (t=0 send) or down when it was sent — while post-revival
// mail goes through.
TEST_F(Fixture, ReviveDropsMailSentBeforeRevival) {
  net.send(2, 0, std::make_shared<TestPayload>());  // sent t=0, arrives t=1
  engine.schedule_at(0.2, [&] { net.crash(0); });
  engine.schedule_at(0.5, [&] { net.revive(0); });
  engine.schedule_at(0.7, [&] {
    net.send(3, 0, std::make_shared<TestPayload>());
  });
  engine.run();
  ASSERT_EQ(peers[0].received.size(), 1u);
  EXPECT_EQ(peers[0].received[0].from, 3u);
}

// ---- PayloadBank (interning + in-flight reference accounting) ----

struct InternedPayload final : Payload {
  explicit InternedPayload(std::uint64_t key, std::size_t bits = 8)
      : key_(key), bits_(bits) {}
  std::size_t size_bits() const override { return bits_; }
  std::string type_name() const override { return "InternedPayload"; }
  std::uint64_t content_hash() const override {
    return payload_hash_mix(0x7e57, key_) | 1;
  }
  bool content_equals(const Payload& other) const override {
    const auto* o = dynamic_cast<const InternedPayload*>(&other);
    return o != nullptr && o->key_ == key_ && o->bits_ == bits_;
  }
  std::uint64_t key_;
  std::size_t bits_;
};

TEST_F(Fixture, PayloadBankInternsEqualBroadcastBodies) {
  net.broadcast(0, std::make_shared<InternedPayload>(42));
  net.broadcast(1, std::make_shared<InternedPayload>(42));  // same content
  const PayloadBank& bank = net.payload_bank();
  // Six copies in flight, ONE live body: the second wave interned onto the
  // first wave's canonical object.
  EXPECT_EQ(bank.live_payloads(), 1u);
  EXPECT_EQ(bank.live_refs(), 6u);
  EXPECT_EQ(bank.live_refs(), net.total_in_flight());
  EXPECT_GT(bank.interned_payloads(), 0u);
  engine.run();
  EXPECT_EQ(bank.live_payloads(), 0u);
  EXPECT_EQ(bank.live_refs(), 0u);
}

TEST_F(Fixture, PayloadBankKeepsDistinctContentApart) {
  net.broadcast(0, std::make_shared<InternedPayload>(1));
  net.broadcast(1, std::make_shared<InternedPayload>(2));
  EXPECT_EQ(net.payload_bank().live_payloads(), 2u);
  engine.run();
  EXPECT_EQ(net.payload_bank().live_payloads(), 0u);
}

// Leak audit: copies addressed to a permanently-crashed peer must still be
// credited back at (dropped) arrival, and opt-out payload types (hash 0)
// are reference-counted all the same.
TEST_F(Fixture, PayloadBankRefsMatchInFlightWithCrashedRecipients) {
  net.crash(3);
  net.broadcast(0, std::make_shared<InternedPayload>(7));
  net.send(1, 2, std::make_shared<TestPayload>());  // opt-out type
  EXPECT_EQ(net.payload_bank().live_refs(), net.total_in_flight());
  engine.run();
  EXPECT_EQ(net.payload_bank().live_refs(), 0u);
  EXPECT_EQ(net.payload_bank().live_payloads(), 0u);
}

// Chaos profile: beyond-model duplication multiplies copies per recipient;
// every duplicate holds (and releases) its own bank reference, so the run
// still drains to an empty bank.
struct DupStressor final : DeliveryStressor {
  std::size_t copies(const Message&) override { return 2; }
  Time extra_delay(const Message&, std::size_t copy) override {
    return static_cast<Time>(copy) * 0.25;
  }
};

TEST_F(Fixture, PayloadBankDrainsUnderDuplicationStressor) {
  net.set_delivery_stressor(std::make_unique<DupStressor>());
  net.broadcast(0, std::make_shared<InternedPayload>(9));
  net.broadcast(1, std::make_shared<InternedPayload>(9));
  EXPECT_EQ(net.payload_bank().live_payloads(), 1u);
  EXPECT_EQ(net.payload_bank().live_refs(), net.total_in_flight());
  EXPECT_EQ(net.payload_bank().live_refs(), 12u);  // 2 waves * 3 peers * 2
  engine.run();
  EXPECT_EQ(net.payload_bank().live_refs(), 0u);
  EXPECT_EQ(net.payload_bank().live_payloads(), 0u);
}

// ---- The bank record lives on the body ----

TEST(PayloadBankRecord, CountersFollowInFlightCopies) {
  obs::MemRegistry mem;
  obs::MemPool& pool = mem.pool("sim.msg.payloads");
  PayloadBank bank;
  bank.set_pool(&pool);
  const PayloadPtr body = std::make_shared<InternedPayload>(5, 80);
  ASSERT_EQ(bank.intern(body), body);
  bank.charge(body, 3);
  const std::uint64_t bytes = obs::modeled_alloc_bytes(48 + 10);
  EXPECT_EQ(bank.live_payloads(), 1u);
  EXPECT_EQ(bank.live_refs(), 3u);
  EXPECT_EQ(bank.live_bytes(), bytes);
  EXPECT_EQ(pool.current(), bytes);
  // A body live here interns to itself without counting a hit; an equal
  // fresh body interns onto it.
  EXPECT_EQ(bank.intern(body), body);
  EXPECT_EQ(bank.interned_payloads(), 0u);
  EXPECT_EQ(bank.intern(std::make_shared<InternedPayload>(5, 80)), body);
  EXPECT_EQ(bank.interned_payloads(), 1u);
  bank.charge(body, 2);  // more copies of a live body: no second charge
  EXPECT_EQ(bank.live_refs(), 5u);
  EXPECT_EQ(pool.current(), bytes);
  bank.credit(body.get(), 4);
  EXPECT_EQ(bank.live_payloads(), 1u);
  EXPECT_THROW(bank.credit(body.get(), 2), contract_violation);
  bank.credit(body.get(), 1);
  EXPECT_EQ(bank.live_payloads(), 0u);
  EXPECT_EQ(bank.live_refs(), 0u);
  EXPECT_EQ(bank.live_bytes(), 0u);
  EXPECT_EQ(pool.current(), 0u);
  // Settled: an equal body no longer interns onto it, and crediting it
  // again is refused.
  const PayloadPtr equal = std::make_shared<InternedPayload>(5, 80);
  EXPECT_EQ(bank.intern(equal), equal);
  EXPECT_THROW(bank.credit(body.get(), 1), contract_violation);
}

TEST(PayloadBankRecord, DuplicateLiveContentIsRefused) {
  PayloadBank bank;
  const PayloadPtr first = std::make_shared<InternedPayload>(9);
  bank.charge(first, 1);
  EXPECT_THROW(bank.charge(std::make_shared<InternedPayload>(9), 1),
               contract_violation);
  bank.credit(first.get(), 1);
}

TEST(PayloadBankRecord, ABodyLiveInOneBankIsRefusedByAnother) {
  PayloadBank one, two;
  const PayloadPtr body = std::make_shared<InternedPayload>(3);
  const PayloadPtr plain = std::make_shared<TestPayload>();
  one.charge(body, 2);
  one.charge(plain, 1);
  EXPECT_THROW((void)two.intern(body), contract_violation);
  EXPECT_THROW(two.charge(body, 1), contract_violation);
  EXPECT_THROW(two.credit(body.get(), 1), contract_violation);
  EXPECT_THROW(two.charge(plain, 1), contract_violation);
  // A copy of a live body is a new body, live nowhere.
  const PayloadPtr copy = std::make_shared<InternedPayload>(
      static_cast<const InternedPayload&>(*body));
  EXPECT_EQ(two.intern(copy), copy);
  two.charge(copy, 1);
  two.credit(copy.get(), 1);
  EXPECT_EQ(one.live_refs(), 3u);
  // Once settled in the first bank, the second takes it.
  one.credit(body.get(), 2);
  one.credit(plain.get(), 1);
  EXPECT_EQ(two.intern(body), body);
  two.charge(body, 1);
  EXPECT_EQ(two.live_payloads(), 1u);
  two.credit(body.get(), 1);
}

TEST(PayloadBankRecord, TeardownWithCopiesInFlightFreesTheBody) {
  // A run cut off mid-flight: the network's audit passes (refs equal the
  // copies in flight) and its bank clears the records of what is left, so
  // the bodies can be sent in the next world. Both worlds exist at once,
  // so the second bank cannot sit where the first one was.
  struct Net {
    Net() {
      for (PeerId i = 0; i < 4; ++i) net.attach(i, &peers[i]);
    }
    Engine engine;
    Network net{engine, 4, 64};
    Recorder peers[4];
  };
  const PayloadPtr body = std::make_shared<InternedPayload>(11);
  const PayloadPtr plain = std::make_shared<TestPayload>();
  auto first = std::make_unique<Net>();
  auto second = std::make_unique<Net>();
  first->net.broadcast(0, body);
  first->net.send(1, 2, plain);
  EXPECT_EQ(first->net.payload_bank().live_refs(),
            first->net.total_in_flight());
  EXPECT_EQ(first->net.payload_bank().live_payloads(), 2u);
  EXPECT_THROW(second->net.broadcast(1, body), contract_violation);
  first.reset();
  second->net.broadcast(1, body);
  second->net.send(2, 3, plain);
  EXPECT_EQ(second->net.payload_bank().live_refs(), 4u);
  second->engine.run();
  EXPECT_EQ(second->net.payload_bank().live_payloads(), 0u);
  EXPECT_EQ(second->peers[0].received.size(), 1u);
}

TEST(PayloadBankRecord, ManyLiveBodiesMatchAReferenceMap) {
  // Enough distinct interned bodies to grow the table several times, and
  // settles in random order (backward-shift deletion), against a map of
  // the live body and its copies per key.
  Rng rng(17);
  PayloadBank bank;
  std::map<std::uint64_t, std::pair<PayloadPtr, std::uint64_t>> live;
  std::uint64_t refs = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.below(300);
    const auto it = live.find(key);
    if (it == live.end() || rng.flip(0.5)) {
      const PayloadPtr fresh = std::make_shared<InternedPayload>(key);
      const PayloadPtr got = bank.intern(fresh);
      EXPECT_EQ(got, it == live.end() ? fresh : it->second.first) << key;
      bank.charge(got, 1);
      auto& [body, copies] = live[key];
      body = got;
      ++copies;
      ++refs;
    } else {
      bank.credit(it->second.first.get(), 1);
      --refs;
      if (--it->second.second == 0) live.erase(it);
    }
    ASSERT_EQ(bank.live_refs(), refs);
    ASSERT_EQ(bank.live_payloads(), live.size());
  }
  for (const auto& [key, entry] : live) {
    bank.credit(entry.first.get(), entry.second);
  }
  EXPECT_EQ(bank.live_payloads(), 0u);
}

// ---- payload_as: typeid for final types, dynamic_cast otherwise ----

struct OpenPayload : Payload {
  std::size_t size_bits() const override { return 1; }
  std::string type_name() const override { return "OpenPayload"; }
};
struct DerivedPayload final : OpenPayload {
  std::string type_name() const override { return "DerivedPayload"; }
};

TEST(PayloadAs, FinalTypesMatchExactlyAndOpenTypesMatchSubclasses) {
  const TestPayload test;
  const InternedPayload interned(3);
  const OpenPayload open;
  const DerivedPayload derived;
  const Payload& as_test = test;
  const Payload& as_interned = interned;
  const Payload& as_open = open;
  const Payload& as_derived = derived;
  // Final target: a hit returns the object itself, any other type misses.
  EXPECT_EQ(payload_as<TestPayload>(as_test), &test);
  EXPECT_EQ(payload_as<InternedPayload>(as_interned), &interned);
  EXPECT_EQ(payload_as<TestPayload>(as_interned), nullptr);
  EXPECT_EQ(payload_as<InternedPayload>(as_test), nullptr);
  EXPECT_EQ(payload_as<DerivedPayload>(as_open), nullptr);
  EXPECT_EQ(payload_as<DerivedPayload>(as_derived), &derived);
  // Non-final target: dynamic_cast, so a subclass object still matches.
  EXPECT_EQ(payload_as<OpenPayload>(as_open), &open);
  EXPECT_EQ(payload_as<OpenPayload>(as_derived),
            static_cast<const OpenPayload*>(&derived));
  EXPECT_EQ(payload_as<OpenPayload>(as_test), nullptr);
}

TEST(NetworkInvalid, RejectsBadConstruction) {
  Engine e;
  EXPECT_THROW(Network(e, 1, 64), contract_violation);
  EXPECT_THROW(Network(e, 4, 0), contract_violation);
}

TEST(NetworkInvalid, FixedLatencyRange) {
  EXPECT_THROW(FixedLatency(0.0), contract_violation);
  EXPECT_THROW(FixedLatency(1.5), contract_violation);
}

}  // namespace
}  // namespace asyncdr::sim
