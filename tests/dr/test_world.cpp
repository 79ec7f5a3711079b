#include "dr/world.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"

namespace asyncdr::dr {
namespace {

/// Trivial correct peer: queries everything and finishes.
struct QueryAllPeer final : Peer {
  void on_start() override {
    const Interval all{0, n()};
    finish(query_runs({&all, 1}));
  }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

/// Outputs the wrong array.
struct WrongPeer final : Peer {
  void on_start() override { finish(BitVec(n(), true)); }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

/// Never terminates.
struct StuckPeer final : Peer {
  void on_start() override {}
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

Config small_cfg() {
  return Config{.n = 32, .k = 3, .beta = 0.34, .message_bits = 16, .seed = 1};
}

TEST(World, HappyPathReport) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) w.set_peer(i, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.all_terminated);
  EXPECT_TRUE(r.all_correct);
  EXPECT_EQ(r.query_complexity, 32u);
  EXPECT_EQ(r.total_queries, 96u);
  EXPECT_EQ(r.message_complexity, 0u);
  ASSERT_EQ(r.outputs.size(), 3u);
  EXPECT_EQ(r.outputs[0], BitVec(32));
}

TEST(World, DetectsWrongOutput) {
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<WrongPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.all_correct);
  ASSERT_EQ(r.incorrect_peers.size(), 1u);
  EXPECT_EQ(r.incorrect_peers[0], 1u);
}

TEST(World, DetectsNonTermination) {
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<StuckPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.all_terminated);
  ASSERT_EQ(r.unterminated_peers.size(), 1u);
  EXPECT_EQ(r.unterminated_peers[0], 1u);
}

TEST(World, FaultyPeersExcludedFromVerdictAndMetrics) {
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<WrongPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  w.mark_faulty(1);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.total_queries, 64u);  // only the two nonfaulty peers count
}

TEST(World, FaultBudgetEnforced) {
  World w(small_cfg(), BitVec(32));  // t = 1
  w.mark_faulty(0);
  EXPECT_THROW(w.mark_faulty(1), contract_violation);
}

TEST(World, CrashedPeerNeverStarts) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) w.set_peer(i, std::make_unique<QueryAllPeer>());
  w.schedule_crash_at(2, 0.0);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok());  // peer 2 is faulty, so its silence is fine
  EXPECT_EQ(r.per_peer_queries[2], 0u);
}

TEST(World, StartTimesRespected) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) w.set_peer(i, std::make_unique<QueryAllPeer>());
  w.set_start_time(1, 5.0);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.time_complexity, 5.0);  // last termination at its start
}

TEST(World, RunOnlyOnce) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) w.set_peer(i, std::make_unique<QueryAllPeer>());
  (void)w.run();
  EXPECT_THROW((void)w.run(), contract_violation);
}

TEST(World, MissingPeerRejected) {
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  EXPECT_THROW((void)w.run(), contract_violation);
}

TEST(World, InputLengthMustMatch) {
  EXPECT_THROW(World(small_cfg(), BitVec(31)), contract_violation);
}

struct Ping final : sim::Payload {
  std::size_t size_bits() const override { return 8; }
  std::string type_name() const override { return "Ping"; }
};

/// Broadcasts once and then idles (never terminates).
struct BroadcastOncePeer final : Peer {
  void on_start() override { broadcast(std::make_shared<Ping>()); }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

/// Idles and records who it hears from.
struct ListenerPeer final : Peer {
  void on_start() override {}
  void on_message(sim::PeerId from, const sim::Payload&) override {
    heard.push_back(from);
  }
  std::string status() const override { return "listening forever"; }
  std::vector<sim::PeerId> heard;
};

TEST(World, CrashAfterSendsCutsBroadcastToAnExactRecipientPrefix) {
  Config cfg{.n = 32, .k = 6, .beta = 0.2, .message_bits = 16, .seed = 1};
  World w(cfg, BitVec(32));
  w.set_peer(0, std::make_unique<BroadcastOncePeer>());
  std::vector<ListenerPeer*> listeners(6, nullptr);
  for (sim::PeerId i = 1; i < 6; ++i) {
    auto p = std::make_unique<ListenerPeer>();
    listeners[i] = p.get();
    w.set_peer(i, std::move(p));
  }
  sim::Trace& trace = w.enable_trace();
  // Peer 0 dies mid-broadcast with exactly 3 sends out. broadcast() visits
  // recipients in ID order, so peers 1..3 hear it and peers 4..5 never do.
  w.crash_after_sends(0, 3);
  (void)w.run();
  for (sim::PeerId i = 1; i <= 3; ++i) {
    ASSERT_EQ(listeners[i]->heard.size(), 1u) << "peer " << i;
    EXPECT_EQ(listeners[i]->heard[0], 0u);
  }
  EXPECT_TRUE(listeners[4]->heard.empty());
  EXPECT_TRUE(listeners[5]->heard.empty());
  // The trace records the cut: three accepted sends, then the crash.
  const auto sends = trace.filter([](const sim::TraceEvent& ev) {
    return ev.kind == sim::TraceEvent::Kind::kSend && ev.from == 0;
  });
  EXPECT_EQ(sends.size(), 3u);
  EXPECT_EQ(trace.count(sim::TraceEvent::Kind::kCrash), 1u);
}

TEST(World, UnterminatedRunProducesAStallReportNamingTheStuckPeer) {
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<ListenerPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.stall.empty());
  EXPECT_NE(r.stall.find("quiescent but incomplete"), std::string::npos)
      << r.stall;
  EXPECT_NE(r.stall.find("stuck peer 1"), std::string::npos) << r.stall;
  // The peer's own status() line surfaces what it was doing.
  EXPECT_NE(r.stall.find("listening forever"), std::string::npos) << r.stall;
  // Clean runs carry no stall report.
  World ok(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    ok.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  EXPECT_TRUE(ok.run().stall.empty());
}

/// Ping-pong forever: every delivery is answered, so the run can only end
/// by exhausting the event budget.
struct PingPongPeer final : Peer {
  void on_start() override {
    if (id() == 0) send(1, std::make_shared<Ping>());
  }
  void on_message(sim::PeerId from, const sim::Payload&) override {
    send(from, std::make_shared<Ping>());
  }
  std::string status() const override { return "ping-ponging"; }
};

TEST(World, BudgetExhaustionProducesAStallReportWithBusyLinks) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<PingPongPeer>());
  }
  const RunReport r = w.run(/*max_events=*/100);
  EXPECT_TRUE(r.budget_exhausted);
  ASSERT_FALSE(r.stall.empty());
  EXPECT_NE(r.stall.find("event budget exhausted"), std::string::npos)
      << r.stall;
  EXPECT_NE(r.stall.find("ping-ponging"), std::string::npos) << r.stall;
  // The ball was in flight when the budget ran out.
  EXPECT_NE(r.stall.find("in flight"), std::string::npos) << r.stall;
}

// ---- Run completion: the run stops once its outcome is fixed ----

/// Broadcasts a Ping, then downloads everything and finishes.
struct PingThenQueryAllPeer final : Peer {
  void on_start() override {
    broadcast(std::make_shared<Ping>());
    const Interval all{0, n()};
    finish(query_runs({&all, 1}));
  }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

/// Answers every delivery.
struct EchoPeer final : Peer {
  void on_start() override {}
  void on_message(sim::PeerId from, const sim::Payload&) override {
    send(from, std::make_shared<Ping>());
  }
};

World::RestartFactory query_all_factory() {
  return [](const Config&, sim::PeerId) {
    return std::make_unique<QueryAllPeer>();
  };
}

TEST(WorldCompletion, StopsAfterTheLastStartWhenOnlyIgnoredTrafficRemains) {
  // Naive peers finish inside on_start; the faulty peer's broadcast reaches
  // only terminated peers. After the k start events nothing pending can
  // change the report.
  Config cfg{.n = 32, .k = 4, .beta = 0.25, .message_bits = 16, .seed = 1};
  World w(cfg, BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  w.set_peer(3, std::make_unique<BroadcastOncePeer>());
  w.mark_faulty(3);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_EQ(r.events, cfg.k);
  EXPECT_GT(w.engine().pending(), 0u);  // its first broadcast is in flight
  EXPECT_EQ(w.engine().pending(), w.network().pending_events());
  EXPECT_DOUBLE_EQ(r.time_complexity, 0.0);
}

TEST(WorldCompletion, APendingRestartKeepsTheRunGoing) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  w.enable_recovery(query_all_factory(), RecoveryOptions{.jitter = 0});
  w.schedule_crash_at(2, 0.0);  // fires before any start
  w.schedule_restart_at(2, 5.0);
  const RunReport r = w.run();
  // The revived incarnation is nonfaulty and must download too.
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_FALSE(w.is_faulty(2));
  EXPECT_EQ(r.total_queries, 96u);
  EXPECT_DOUBLE_EQ(r.time_complexity, 5.0);
}

TEST(WorldCompletion, ARevivedPeersSecondScheduledCrashStillFires) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  w.enable_recovery(query_all_factory(), RecoveryOptions{.jitter = 0});
  w.schedule_crash_at(2, 0.0);
  w.schedule_restart_at(2, 1.0);  // revived and done at t = 1
  w.schedule_crash_at(2, 2.0);    // then crashed again: faulty at the end
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_TRUE(w.is_faulty(2));
  EXPECT_TRUE(w.network().is_crashed(2));
  EXPECT_EQ(r.total_queries, 64u);  // the crashed incarnation is excluded
  EXPECT_DOUBLE_EQ(r.time_complexity, 0.0);
}

TEST(WorldCompletion, ASendTriggeredCrashWithAutoRestartKeepsTheRunGoing) {
  // Peers 0 and 1 are done at t = 0, but peer 0's Ping is still in flight
  // to peer 2. Peer 2 answers it, which crashes it (zero sends allowed),
  // and its restart policy revives it as a nonfaulty peer that must finish.
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<PingThenQueryAllPeer>());
  w.set_peer(1, std::make_unique<QueryAllPeer>());
  w.set_peer(2, std::make_unique<EchoPeer>());
  w.enable_recovery(query_all_factory(), RecoveryOptions{.jitter = 0});
  w.crash_after_sends(2, 0);
  w.restart_on_crash(2, 0.0);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_FALSE(w.is_faulty(2));
  EXPECT_EQ(r.total_queries, 96u);
  EXPECT_GT(r.time_complexity, 0.0);
}

/// Journals one bit per delivery.
struct JournalOnDeliveryPeer final : Peer {
  void on_start() override {}
  void on_message(sim::PeerId, const sim::Payload&) override {
    const Interval bit{0, 1};
    (void)journal_runs({&bit, 1}, BitVec(1));
  }
};

TEST(WorldCompletion, ACrashPointKillWithAutoRestartKeepsTheRunGoing) {
  // As above, but peer 2 dies at a journal sentinel instead of a send.
  World w(small_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<PingThenQueryAllPeer>());
  w.set_peer(1, std::make_unique<QueryAllPeer>());
  w.set_peer(2, std::make_unique<JournalOnDeliveryPeer>());
  w.enable_recovery(query_all_factory(), RecoveryOptions{.jitter = 0});
  w.mark_faulty(2);
  w.kill_at_crash_point(2, CrashPoint::kAppendStart);
  w.restart_on_crash(2, 0.0);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.recovery.restarts, 1u);
  EXPECT_FALSE(w.is_faulty(2));
  EXPECT_EQ(r.total_queries, 96u);
}

TEST(WorldCompletion, ASourceMutationAfterTheLastTerminationStillLands) {
  // Everyone downloads at t = 0; the source changes at t = 5. The verdict
  // is checked against the source at the end of the run, so the mutation
  // must fire: the outputs no longer match it.
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  w.engine().schedule_at(5.0, [&w] {
    BitVec data = w.source().data();
    data.flip(7);
    w.source().set_data(std::move(data));
  });
  const RunReport r = w.run();
  EXPECT_TRUE(r.all_terminated);
  EXPECT_FALSE(r.all_correct);
  EXPECT_EQ(r.incorrect_peers.size(), 3u);
  EXPECT_TRUE(w.engine().idle());
}

TEST(WorldCompletion, ALateStarterCountsAsRunningUntilItFinishes) {
  // Peers 0 and 1 finish at t = 0 while the faulty peer's broadcast is in
  // flight; peer 2 starts at t = 5 and must still be waited for.
  Config cfg{.n = 32, .k = 4, .beta = 0.25, .message_bits = 16, .seed = 1};
  World w(cfg, BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) {
    w.set_peer(i, std::make_unique<QueryAllPeer>());
  }
  w.set_peer(3, std::make_unique<BroadcastOncePeer>());
  w.mark_faulty(3);
  w.set_start_time(2, 5.0);
  const RunReport r = w.run();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(w.peer(2).terminated());
  EXPECT_DOUBLE_EQ(r.time_complexity, 5.0);
}

TEST(World, ReportToStringMentionsVerdict) {
  World w(small_cfg(), BitVec(32));
  for (sim::PeerId i = 0; i < 3; ++i) w.set_peer(i, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  EXPECT_NE(r.to_string().find("ok=yes"), std::string::npos);
}

}  // namespace
}  // namespace asyncdr::dr
