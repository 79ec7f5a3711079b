// Experiments E6 (Theorem 3.7) and E7 (Theorem 3.12) — the randomized
// Byzantine Download protocols for beta < 1/2.
//
// Regenerated series:
//   (a) 2-cycle: Q vs attack family, with decision-tree separator queries
//       and fallback counts broken out. Claim: Q = O~(n/((1-2b)k) + k) whp.
//   (b) multi-cycle: same, plus cycle counts; expected-Q claim of Thm 3.12.
//   (c) whp failure-rate measurement over many seeds (the paper's "w.h.p."
//       made empirical — the fallback path preserves correctness, so
//       failures show up as extra queries, not wrong outputs).
//   (d) Ablation: threshold tau sensitivity, and decision trees vs naive
//       majority voting under vote stuffing (majority voting is WRONG).
#include <set>

#include "bench_common.hpp"

#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/decision_tree.hpp"

using namespace asyncdr;
using namespace asyncdr::bench;
using namespace asyncdr::proto;

namespace {

constexpr std::size_t kN = 1 << 14;
constexpr std::size_t kK = 192;
constexpr double kBeta = 0.125;
constexpr double kC = 2.0;
constexpr std::size_t kRepeats = 5;

dr::Config cfg(std::uint64_t seed) {
  return dr::Config{
      .n = kN, .k = kK, .beta = kBeta, .message_bits = 8192, .seed = seed};
}

struct Attack {
  std::string name;
  PeerFactory factory;  // null = no Byzantine peers
};

std::vector<Attack> attacks() {
  return {{"none", nullptr},
          {"silent", make_silent_byz()},
          {"vote stuffing", make_vote_stuffer(kC, 0)},
          {"comb stuffing (tree worst case)", make_comb_stuffer(kC, 0)},
          {"equivocation", make_equivocator(kC)},
          {"quorum rushing", make_quorum_rusher(kC)},
          {"garbage", make_garbage_byz()}};
}

struct DetailStats {
  Summary q, tree, fallback;
  std::size_t failures = 0;
};

/// Runs worlds directly so per-peer tree/fallback diagnostics are visible.
DetailStats detail_runs(const RandParams& params,
                        MultiCyclePeer::Schedule schedule,
                        const Attack& attack) {
  DetailStats out;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    const auto c = cfg(1000 + rep);
    dr::World world(c, random_input(c.n, c.seed));
    std::vector<sim::PeerId> byz;
    if (attack.factory) byz = pick_faulty(c, c.max_faulty(), rep);
    const std::set<sim::PeerId> byz_set(byz.begin(), byz.end());
    for (sim::PeerId id = 0; id < c.k; ++id) {
      if (byz_set.contains(id)) {
        world.set_peer(id, attack.factory(c, id));
        world.mark_faulty(id);
      } else {
        world.set_peer(id, std::make_unique<MultiCyclePeer>(params, schedule));
      }
    }
    world.network().set_latency_policy(std::make_unique<adv::UniformLatency>(
        world.adversary_rng(7), 0.05, 1.0));
    const auto report = world.run();
    if (!report.ok()) {
      ++out.failures;
      continue;
    }
    out.q.add(static_cast<double>(report.query_complexity));
    for (sim::PeerId id = 0; id < c.k; ++id) {
      if (byz_set.contains(id)) continue;
      const auto& peer = dynamic_cast<const MultiCyclePeer&>(world.peer(id));
      out.tree.add(static_cast<double>(peer.tree_queries()));
      out.fallback.add(static_cast<double>(peer.fallback_segments()));
    }
  }
  return out;
}

/// Q's mean when any run succeeded, else nothing: a row that always fails
/// has no Q to pin.
void add_q_mean(std::vector<std::pair<std::string, double>>& fields,
                const Summary& q) {
  if (!q.empty()) fields.emplace_back("q_mean", q.mean());
}

/// One E6/E7 row: the printed table's columns.
void record_detail(BenchJson& bj, const std::string& section,
                   const std::string& label, const DetailStats& stats) {
  std::vector<std::pair<std::string, double>> fields{
      {"runs", static_cast<double>(kRepeats)},
      {"failures", static_cast<double>(stats.failures)}};
  add_q_mean(fields, stats.q);
  if (!stats.tree.empty()) {
    fields.emplace_back("tree_queries_mean", stats.tree.mean());
    fields.emplace_back("fallback_segments_mean", stats.fallback.mean());
  }
  bj.record_mixed(section, label, fields);
}

}  // namespace

int main() {
  BenchJson bj("randomized");
  const auto params = RandParams::derive(cfg(1), kC);
  banner("E6/E7 — randomized Byzantine Download (Thms 3.7, 3.12)",
         "n=" + std::to_string(kN) + ", k=" + std::to_string(kK) +
             ", beta=" + std::to_string(kBeta) + ", " + params.to_string());

  section("E6: 2-cycle protocol vs attacks");
  {
    Table table({"attack", "Q (max/peer)", "tree queries (mean)",
                 "fallback segs (mean)", "Q bound", "fails"});
    for (const Attack& attack : attacks()) {
      const auto stats =
          detail_runs(params, MultiCyclePeer::Schedule::kTwoCycle, attack);
      table.add(attack.name, mean_cell(stats.q), mean_cell(stats.tree),
                mean_cell(stats.fallback),
                bounds::two_cycle_q(cfg(1), params), stats.failures);
      record_detail(bj, "E6", attack.name, stats);
    }
    table.print();
    std::printf("shape: Q ~ n/s + trees = %zu + O(k); stuffing only adds\n"
                "separator queries, never wrong outputs (Protocol 3).\n",
                kN / params.segments);
  }

  section("E7: multi-cycle protocol vs attacks");
  {
    Table table({"attack", "Q (max/peer)", "tree queries (mean)",
                 "fallback segs (mean)", "Q bound", "fails"});
    for (const Attack& attack : attacks()) {
      const auto stats =
          detail_runs(params, MultiCyclePeer::Schedule::kMultiCycle, attack);
      table.add(attack.name, mean_cell(stats.q), mean_cell(stats.tree),
                mean_cell(stats.fallback),
                bounds::multi_cycle_q(cfg(1), params), stats.failures);
      record_detail(bj, "E7", attack.name, stats);
    }
    table.print();
  }

  section("whp failure rate over 40 seeds (2-cycle, vote stuffing)");
  {
    // The paper's "w.h.p." made empirical, including the tau-margin knob:
    // the paper's Claim 5 margin (2) at this small scale leaves a few
    // percent of runs where some segment misses tau honest picks; widening
    // the margin (smaller tau) trades that for extra candidates.
    for (double margin : {2.0, 3.0}) {
      std::size_t wrong = 0;
      constexpr std::size_t runs = 40;
      Summary q;
      for (std::size_t rep = 0; rep < runs; ++rep) {
        Scenario s;
        s.cfg = cfg(5000 + rep);
        s.honest = make_two_cycle(kC, margin);
        s.byzantine = make_vote_stuffer(kC, rep % params.segments);
        s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), rep);
        const auto report = run_scenario(s);
        if (!report.ok()) ++wrong;
        q.add(static_cast<double>(report.query_complexity));
      }
      std::printf("tau margin %.0f: runs=%zu wrong_or_hung=%zu (failure rate "
                  "%.3f), Q=%s\n", margin, runs, wrong,
                  static_cast<double>(wrong) / static_cast<double>(runs),
                  q.to_string().c_str());
      bj.record_values("whp", "tau margin " + Table::to_cell(margin),
                       {{"runs", static_cast<double>(runs)},
                        {"failures", static_cast<double>(wrong)},
                        {"q_mean", q.mean()},
                        {"q_min", q.min()},
                        {"q_max", q.max()}});
    }
  }

  section("ablation: tau sensitivity (2-cycle, vote + comb stuffing)");
  {
    // Vote stuffing concentrates t identical fakes (beats any tau <= t);
    // comb stuffing spreads t DISTINCT fakes (each gets one vote, so it
    // only bites at tau = 1 — where it degenerates the tree to depth t).
    Table table({"tau", "attack", "Q", "fails/5"});
    for (std::size_t tau : {1ul, 2ul, params.tau, 2 * params.tau}) {
      for (int attack = 0; attack < 2; ++attack) {
        RandParams p = params;
        p.tau = tau;
        std::size_t fails = 0;
        Summary q;
        for (std::size_t rep = 0; rep < kRepeats; ++rep) {
          Scenario s;
          s.cfg = cfg(6000 + rep);
          s.honest = make_two_cycle_with(p);
          s.byzantine = attack == 0 ? make_vote_stuffer(kC, 0)
                                    : make_comb_stuffer(kC, 0);
          s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), rep);
          const auto report = run_scenario(s);
          if (!report.ok()) {
            ++fails;
          } else {
            q.add(static_cast<double>(report.query_complexity));
          }
        }
        const std::string attack_name =
            attack == 0 ? "vote stuff" : "comb stuff";
        table.add(tau, attack_name, mean_cell(q), fails);
        std::vector<std::pair<std::string, double>> fields{
            {"runs", static_cast<double>(kRepeats)},
            {"failures", static_cast<double>(fails)}};
        add_q_mean(fields, q);
        bj.record_mixed("tau-ablation",
                        "tau=" + std::to_string(tau) + " " + attack_name,
                        fields);
      }
    }
    table.print();
    std::printf(
        "shape: small tau admits fake candidates (comb at tau=1 costs ~t\n"
        "separators but stays correct). Oversized tau is the real danger\n"
        "zone: once tau exceeds the honest per-segment support but not the\n"
        "Byzantine coalition size (support t), the truth drops OUT of the\n"
        "candidate set while the stuffed fake stays IN — wrong outputs (the\n"
        "fails column). The paper's tau = eta/(2s) sits safely below both.\n");
  }

  section("ablation: decision tree vs majority vote under stuffing");
  {
    // Offline comparison on one segment's vote multiset: t stuffed fakes vs
    // tau..eta honest copies of the truth. Majority voting picks the fake
    // once t exceeds the honest copies; the decision tree never does.
    const std::size_t seg_len = kN / params.segments;
    Rng rng(42);
    const BitVec truth = BitVec::generate(seg_len, [&] { return rng.flip(); });
    BitVec fake = truth;
    for (std::size_t i = 0; i < fake.size(); ++i) fake.flip(i);

    Table table({"honest copies", "stuffed copies", "majority verdict",
                 "tree verdict", "tree queries"});
    const std::size_t t = cfg(1).max_faulty();
    for (std::size_t honest : {params.tau, 2 * params.tau, t + 1}) {
      const bool majority_right = honest > t;
      const DecisionTree tree({truth, fake});
      std::size_t queries = 0;
      const BitVec& winner = tree.determine([&](std::size_t i) {
        ++queries;
        return truth.get(i);
      });
      table.add(honest, t, majority_right ? "correct" : "WRONG",
                winner == truth ? "correct" : "WRONG", queries);
    }
    table.print();
    std::printf("the paper's design point: votes select CANDIDATES only;\n"
                "the source itself (via separator queries) selects the value.\n");
  }
  return 0;
}
