// Scenario example: surviving a coordinated disinformation campaign.
//
// 192 light clients need a 16 KiBit data blob from a rate-limited registry.
// An eighth of them are compromised and coordinate: all of them "report"
// the same fabricated segment, trying to out-vote the honest reports (vote
// stuffing). The 2-cycle randomized protocol (Theorem 3.7) survives because
// votes only nominate CANDIDATES — conflicting candidates are resolved by
// querying the registry at the decision tree's separating indices, which
// the attackers cannot forge.
//
// The second act flips the balance: with a compromised MAJORITY, the
// Theorem 3.1/3.2 two-world attack defeats any protocol that leaves a
// single bit unqueried — we run that attack and watch it win.
//
//   build/examples/byzantine_storm
#include <cstdio>
#include <set>

#include "common/stats.hpp"
#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/lowerbound.hpp"
#include "protocols/runner.hpp"

int main() {
  using namespace asyncdr;
  using namespace asyncdr::proto;

  // ---- Act 1: minority compromise, the protocol wins. ----
  dr::Config cfg{.n = 1 << 14, .k = 192, .beta = 0.125,
                 .message_bits = 8192, .seed = 4242};
  const RandParams params = RandParams::derive(cfg, 2.0);
  std::printf("act 1: k=%zu clients, %zu compromised, %s\n", cfg.k,
              cfg.max_faulty(), params.to_string().c_str());

  dr::World world(cfg, random_input(cfg.n, cfg.seed));
  const auto byz = pick_faulty(cfg, cfg.max_faulty());
  const std::set<sim::PeerId> byz_set(byz.begin(), byz.end());
  for (sim::PeerId id = 0; id < cfg.k; ++id) {
    if (byz_set.contains(id)) {
      world.set_peer(id, std::make_unique<VoteStuffPeer>(params, 0));
      world.mark_faulty(id);
    } else {
      world.set_peer(id, std::make_unique<MultiCyclePeer>(
          params, MultiCyclePeer::Schedule::kTwoCycle));
    }
  }
  const dr::RunReport report = world.run();

  Summary tree_queries;
  for (sim::PeerId id = 0; id < cfg.k; ++id) {
    if (byz_set.contains(id)) continue;
    const auto& peer = dynamic_cast<const MultiCyclePeer&>(world.peer(id));
    tree_queries.add(static_cast<double>(peer.tree_queries()));
  }
  std::printf("  verdict: %s\n", report.to_string().c_str());
  std::printf("  cost of the disinformation: %s separator queries/client\n"
              "  (vs %zu bits for the segment itself; naive download: %zu)\n",
              tree_queries.to_string().c_str(), cfg.n / params.segments,
              cfg.n);

  // ---- Act 2: majority compromise, every cheap protocol falls. ----
  dr::Config hostile{.n = 4096, .k = 10, .beta = 0.5, .message_bits = 1024,
                     .seed = 9};
  std::printf("\nact 2: beta = 1/2 — the Theorem 3.1 two-world attack\n");
  const auto attack =
      run_deterministic_majority_attack(hostile, make_crash_multi());
  std::printf("  victim queried %zu of %zu bits in the probe\n",
              attack.victim_probe_queries, hostile.n);
  std::printf("  adversary planted a flip at bit %zu; attack %s (%s)\n",
              attack.planted_bit,
              attack.succeeded ? "SUCCEEDED" : "failed",
              attack.detail.c_str());
  std::printf("  moral: past half compromise, only Q = n survives.\n");

  return report.ok() && attack.succeeded ? 0 : 1;
}
