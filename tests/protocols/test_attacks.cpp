// Direct behavioural tests of the Byzantine attack peers: what they send,
// to whom, and that their payloads exercise the honest validation paths.
#include "protocols/attacks.hpp"
#include "protocols/attacks2.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/runner.hpp"
#include "sim/trace.hpp"

namespace asyncdr::proto {
namespace {

using sim::TraceEvent;

/// Runs a world where peer 0 is the attack instance and everyone else is a
/// message sink; returns the trace.
template <typename MakeAttack>
std::pair<dr::RunReport, std::vector<TraceEvent>> observe_attack(
    const dr::Config& cfg, MakeAttack&& make_attack) {
  struct Sink final : dr::Peer {
    void on_start() override { finish(BitVec(n())); }
    void on_message(sim::PeerId, const sim::Payload&) override {}
  };
  dr::World world(cfg, random_input(cfg.n, cfg.seed));
  sim::Trace& trace = world.enable_trace();
  world.set_peer(0, make_attack(cfg));
  world.mark_faulty(0);
  for (sim::PeerId id = 1; id < cfg.k; ++id) {
    world.set_peer(id, std::make_unique<Sink>());
  }
  auto report = world.run();
  auto sends = trace.filter([](const TraceEvent& ev) {
    return ev.kind == TraceEvent::Kind::kSend && ev.from == 0;
  });
  return {std::move(report), std::move(sends)};
}

dr::Config cfg() {
  return dr::Config{.n = 512, .k = 8, .beta = 0.3, .message_bits = 256,
                    .seed = 5};
}

TEST(Attacks, SilentSendsNothing) {
  const auto [report, sends] = observe_attack(cfg(), [](const dr::Config&) {
    return std::make_unique<SilentByzPeer>();
  });
  EXPECT_TRUE(sends.empty());
}

TEST(Attacks, GarbageSendsForeignAndMalformedPayloads) {
  const auto [report, sends] = observe_attack(cfg(), [](const dr::Config&) {
    return std::make_unique<GarbageByzPeer>();
  });
  ASSERT_FALSE(sends.empty());
  std::set<std::string> types;
  for (const auto& ev : sends) types.insert(ev.payload_type);
  EXPECT_TRUE(types.contains("attack::Noise"));
  EXPECT_TRUE(types.contains("committee::Votes"));
  EXPECT_TRUE(types.contains("rnd::Report"));
}

TEST(Attacks, CommitteeLiarBroadcastsVotesToEveryone) {
  const auto [report, sends] = observe_attack(cfg(), [](const dr::Config& c) {
    (void)c;
    return std::make_unique<CommitteeLiarPeer>(CommitteeLiarPeer::Mode::kFlipAll);
  });
  ASSERT_EQ(sends.size(), 7u);  // one Votes payload to each other peer
  for (const auto& ev : sends) EXPECT_EQ(ev.payload_type, "committee::Votes");
}

TEST(Attacks, EquivocatingLiarSendsPerReceiverValues) {
  // The equivocation itself is payload content; here we check fan-out shape.
  const auto [report, sends] = observe_attack(cfg(), [](const dr::Config&) {
    return std::make_unique<CommitteeLiarPeer>(
        CommitteeLiarPeer::Mode::kEquivocate);
  });
  EXPECT_EQ(sends.size(), 7u);
}

TEST(Attacks, VoteStufferCoversEveryCycleOnce) {
  const dr::Config c{.n = 1 << 12, .k = 192, .beta = 0.125,
                     .message_bits = 4096, .seed = 5};
  const RandParams params = RandParams::derive(c, 2.0);
  ASSERT_FALSE(params.naive_fallback);
  std::size_t cycles = 1;
  for (std::size_t s = params.segments; s > 1; s = (s + 1) / 2) ++cycles;

  const auto [report, sends] = observe_attack(c, [&](const dr::Config&) {
    return std::make_unique<VoteStuffPeer>(params, 0);
  });
  // One Report broadcast (k-1 sends) per cycle layout.
  EXPECT_EQ(sends.size(), (c.k - 1) * cycles);
  for (const auto& ev : sends) EXPECT_EQ(ev.payload_type, "rnd::Report");
}

TEST(Attacks, CombStufferFakesAreDistinctPerAttacker) {
  const dr::Config c{.n = 1 << 12, .k = 192, .beta = 0.125,
                     .message_bits = 4096, .seed = 5};
  // Two comb attackers with different IDs flip different positions: run a
  // 2-cycle world and check the candidate multiplicity stayed at 1 per fake
  // (no stacking), i.e. honest peers are NOT forced into extra queries at
  // the default tau.
  Scenario s;
  s.cfg = c;
  s.honest = make_two_cycle(2.0);
  s.byzantine = make_comb_stuffer(2.0, 0);
  s.byz_ids = pick_faulty(c, c.max_faulty());
  const auto report = run_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Attacks, QuorumRusherSendsValidLookingReports) {
  const dr::Config c{.n = 1 << 12, .k = 192, .beta = 0.125,
                     .message_bits = 4096, .seed = 5};
  const RandParams params = RandParams::derive(c, 2.0);
  const auto [report, sends] = observe_attack(c, [&](const dr::Config&) {
    return std::make_unique<QuorumRusherPeer>(params);
  });
  ASSERT_FALSE(sends.empty());
  for (const auto& ev : sends) EXPECT_EQ(ev.payload_type, "rnd::Report");
}

TEST(Attacks, FallbackParamsKeepRandomAttacksQuiet) {
  // With naive-fallback parameters the randomized attackers know the
  // protocol queries everything and stay silent.
  RandParams fallback;
  fallback.naive_fallback = true;
  const auto [report, sends] = observe_attack(cfg(), [&](const dr::Config&) {
    return std::make_unique<VoteStuffPeer>(fallback, 0);
  });
  EXPECT_TRUE(sends.empty());
}

}  // namespace
}  // namespace asyncdr::proto
