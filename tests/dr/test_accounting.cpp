// Cross-checks between independently maintained counters: the report's
// aggregate query measures vs its per-peer array vs the source's own
// served-bits counter, across crash and Byzantine scenarios. Also pins the
// StallReport rendering with golden strings on fully deterministic runs.
#include "dr/world.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "protocols/runner.hpp"

namespace asyncdr::dr {
namespace {

/// Sums per_peer_queries over the nonfaulty peers only (the population the
/// aggregate measures are defined over).
std::uint64_t nonfaulty_sum(const RunReport& report,
                            const proto::Scenario& s) {
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < report.per_peer_queries.size(); ++p) {
    bool faulty = false;
    for (sim::PeerId b : s.byz_ids) faulty |= (b == p);
    for (const adv::CrashSpec& crash : s.crashes.specs()) {
      faulty |= (crash.peer == p);
    }
    if (!faulty) sum += report.per_peer_queries[p];
  }
  return sum;
}

TEST(Accounting, CrashScenarioTotalsReconcile) {
  proto::Scenario s;
  s.cfg = Config{.n = 4096, .k = 12, .beta = 0.5, .message_bits = 256,
                 .seed = 41};
  s.honest = proto::make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());

  std::uint64_t served = 0;
  std::uint64_t all_peer_bits = 0;
  s.post_run = [&](World& world, const RunReport& report) {
    served = world.source().total_bits_served();
    all_peer_bits = std::accumulate(report.per_peer_queries.begin(),
                                    report.per_peer_queries.end(),
                                    std::uint64_t{0});
  };
  const RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok()) << report.to_string();

  // total_queries is defined over nonfaulty peers only.
  EXPECT_EQ(report.total_queries, nonfaulty_sum(report, s));
  // The source's own independent counter covers every peer, faulty or not.
  EXPECT_EQ(served, all_peer_bits);
  // Q is the max entry of the per-peer array over nonfaulty peers.
  for (std::size_t p = 0; p < report.per_peer_queries.size(); ++p) {
    if (p < s.crashes.size()) continue;  // the silent prefix
    EXPECT_LE(report.per_peer_queries[p], report.query_complexity);
  }
}

TEST(Accounting, ByzantineScenarioTotalsReconcile) {
  proto::Scenario s;
  s.cfg = Config{.n = 1024, .k = 13, .beta = 0.3, .message_bits = 256,
                 .seed = 43};
  s.honest = proto::make_committee();
  s.byzantine =
      proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty());

  std::uint64_t served = 0;
  std::uint64_t all_peer_bits = 0;
  s.post_run = [&](World& world, const RunReport& report) {
    served = world.source().total_bits_served();
    all_peer_bits = std::accumulate(report.per_peer_queries.begin(),
                                    report.per_peer_queries.end(),
                                    std::uint64_t{0});
  };
  const RunReport report = proto::run_scenario(s);
  ASSERT_TRUE(report.ok()) << report.to_string();

  // Byzantine peers query too (liars must know the data to flip it); the
  // aggregate excludes them while the source's counter does not.
  EXPECT_EQ(report.total_queries, nonfaulty_sum(report, s));
  EXPECT_EQ(served, all_peer_bits);
  EXPECT_GE(served, report.total_queries);
}

// ---------------------------------------------------------------------------
// StallReport goldens. These scenarios exchange no messages, so every field
// of the rendering — times included — is deterministic.

struct QueryAllPeer final : Peer {
  void on_start() override {
    const Interval all{0, n()};
    finish(query_runs({&all, 1}));
  }
  void on_message(sim::PeerId, const sim::Payload&) override {}
};

struct ListenerPeer final : Peer {
  void on_start() override {}
  void on_message(sim::PeerId, const sim::Payload&) override {}
  std::string status() const override { return "listening forever"; }
};

Config golden_cfg() {
  return Config{.n = 32, .k = 3, .beta = 0.34, .message_bits = 16, .seed = 1};
}

TEST(StallGolden, QuiescentIncompleteRendering) {
  World w(golden_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<ListenerPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  const RunReport r = w.run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.stall,
            "StallReport{quiescent but incomplete, pending_events=0, "
            "crashed_peers=0}\n"
            "  stuck peer 1: last_send=never last_delivery=never "
            "bits_queried=0 status=\"listening forever\"\n");
}

TEST(StallGolden, TraceOverflowCutoffLineRendering) {
  World w(golden_cfg(), BitVec(32));
  w.set_peer(0, std::make_unique<QueryAllPeer>());
  w.set_peer(1, std::make_unique<ListenerPeer>());
  w.set_peer(2, std::make_unique<QueryAllPeer>());
  // Room for peer 0's query+terminate only; peer 2's query (also at t=0)
  // is the first dropped event.
  (void)w.enable_trace(/*capacity=*/2);
  const RunReport r = w.run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.stall,
            "StallReport{quiescent but incomplete, pending_events=0, "
            "crashed_peers=0}\n"
            "  stuck peer 1: last_send=never last_delivery=never "
            "bits_queried=0 status=\"listening forever\"\n"
            "  trace visibility ended at t=0 (the bounded trace overflowed; "
            "later events were not recorded)\n");
}

}  // namespace
}  // namespace asyncdr::dr
