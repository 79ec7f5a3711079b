// Experiment F3 — decision-tree resolution cost (Protocol 3). The paper
// bounds each segment's resolution cost by the number of strings received
// for it (internal nodes = candidates - 1, path queries <= depth). This
// bench regenerates that accounting: cost vs candidate-set size and vs
// adversarial candidate shapes.
#include <set>

#include "bench_common.hpp"

#include "common/rng.hpp"
#include "protocols/decision_tree.hpp"

using namespace asyncdr;
using namespace asyncdr::bench;
using namespace asyncdr::proto;

namespace {

std::vector<BitVec> random_candidates(Rng& rng, std::size_t count,
                                      std::size_t len) {
  std::vector<BitVec> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    const BitVec c = BitVec::generate(len, [&] { return rng.flip(); });
    if (seen.insert(c.to_string()).second) out.push_back(c);
  }
  return out;
}

/// Adversarial "comb": candidates differing from the truth in exactly one
/// late position each — maximizes tree depth.
std::vector<BitVec> comb_candidates(const BitVec& truth, std::size_t count) {
  std::vector<BitVec> out{truth};
  for (std::size_t j = 1; j < count; ++j) {
    BitVec c = truth;
    c.flip(truth.size() - j);
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main() {
  BenchJson bj("decision_tree");
  banner("F3 — decision-tree resolution cost (Protocol 3)",
         "internal nodes = candidates-1; per-resolution queries <= depth; "
         "the true string always survives");

  section("random candidate sets (segment length 512)");
  {
    Table table({"candidates", "internal nodes", "depth", "mean queries",
                 "always correct"});
    Rng rng(7);
    for (std::size_t count : {2ul, 4ul, 8ul, 16ul, 32ul, 64ul}) {
      Summary queries;
      bool all_correct = true;
      std::size_t depth = 0, internal = 0;
      for (int trial = 0; trial < 20; ++trial) {
        const auto cands = random_candidates(rng, count, 512);
        const DecisionTree tree(cands);
        depth = std::max(depth, tree.depth());
        internal = tree.internal_nodes();
        const BitVec& truth = cands[rng.below(cands.size())];
        std::size_t spent = 0;
        const BitVec& winner = tree.determine([&](std::size_t i) {
          ++spent;
          return truth.get(i);
        });
        queries.add(static_cast<double>(spent));
        all_correct = all_correct && (winner == truth);
      }
      table.add(count, internal, depth, queries.mean(), all_correct);
      bj.record_values(
          "random", "candidates=" + std::to_string(count),
          {{"internal_nodes", static_cast<double>(internal)},
           {"depth", static_cast<double>(depth)},
           {"queries_mean", queries.mean()},
           {"always_correct", all_correct ? 1.0 : 0.0}});
    }
    table.print();
    std::printf("shape: random separators split ~evenly, so queries ~ log\n"
                "of the candidate count despite internal nodes = count-1.\n");
  }

  section("adversarial comb candidates (worst-case depth)");
  {
    Table table({"candidates", "internal nodes", "depth", "queries to truth",
                 "correct"});
    Rng rng(11);
    const BitVec truth = BitVec::generate(512, [&] { return rng.flip(); });
    for (std::size_t count : {2ul, 8ul, 32ul, 128ul}) {
      const auto cands = comb_candidates(truth, count);
      const DecisionTree tree(cands);
      std::size_t spent = 0;
      const BitVec& winner = tree.determine([&](std::size_t i) {
        ++spent;
        return truth.get(i);
      });
      table.add(count, tree.internal_nodes(), tree.depth(), spent,
                winner == truth);
      bj.record_values(
          "comb", "candidates=" + std::to_string(count),
          {{"internal_nodes", static_cast<double>(tree.internal_nodes())},
           {"depth", static_cast<double>(tree.depth())},
           {"queries", static_cast<double>(spent)},
           {"correct", winner == truth ? 1.0 : 0.0}});
    }
    table.print();
    std::printf("shape: a coordinated adversary can force depth = count-1\n"
                "— exactly the paper's sum_i R_i <= k per-peer allowance,\n"
                "since each Byzantine peer buys one candidate per segment.\n");
  }
  return 0;
}
