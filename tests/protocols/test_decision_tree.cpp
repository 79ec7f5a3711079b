#include "protocols/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "support/bits.hpp"

namespace asyncdr::proto {
namespace {

using support::from_string;

/// Oracle that answers from a fixed truth string and counts queries.
struct CountingOracle {
  explicit CountingOracle(BitVec t) : truth(std::move(t)) {}
  bool operator()(std::size_t i) {
    ++queries;
    return truth.get(i);
  }
  BitVec truth;
  std::size_t queries = 0;
};

TEST(DecisionTree, SingleCandidateNeedsNoQueries) {
  const DecisionTree tree({from_string("1010")});
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.internal_nodes(), 0u);
  CountingOracle oracle(from_string("1010"));
  EXPECT_EQ(tree.determine(std::ref(oracle)).to_string(), "1010");
  EXPECT_EQ(oracle.queries, 0u);
}

TEST(DecisionTree, TwoCandidatesOneQuery) {
  const DecisionTree tree(
      {from_string("0000"), from_string("0010")});
  EXPECT_EQ(tree.internal_nodes(), 1u);
  CountingOracle oracle(from_string("0010"));
  EXPECT_EQ(tree.determine(std::ref(oracle)).to_string(), "0010");
  EXPECT_EQ(oracle.queries, 1u);
}

TEST(DecisionTree, PicksTrueCandidateAmongMany) {
  std::vector<BitVec> cands{
      from_string("00000000"), from_string("11111111"),
      from_string("10101010"), from_string("00001111"),
      from_string("11110000")};
  const DecisionTree tree(cands);
  EXPECT_EQ(tree.internal_nodes(), 4u);  // leaves - 1
  for (const BitVec& truth : cands) {
    CountingOracle oracle(truth);
    EXPECT_EQ(tree.determine(std::ref(oracle)), truth);
    EXPECT_LE(oracle.queries, tree.depth());
  }
}

TEST(DecisionTree, IndexOffsetShiftsQueries) {
  const DecisionTree tree(
      {from_string("01"), from_string("11")});
  std::vector<std::size_t> asked;
  const BitVec& winner = tree.determine(
      [&](std::size_t i) {
        asked.push_back(i);
        return true;
      },
      100);
  EXPECT_EQ(winner.to_string(), "11");
  ASSERT_EQ(asked.size(), 1u);
  EXPECT_EQ(asked[0], 100u);  // local separator 0 shifted by offset
}

TEST(DecisionTree, RejectsBadInput) {
  EXPECT_THROW(DecisionTree({}), contract_violation);
  EXPECT_THROW(DecisionTree({BitVec(3), BitVec(4)}), contract_violation);
  // Duplicates make the "pairwise distinct" invariant fail during build.
  EXPECT_THROW(DecisionTree({BitVec(3), BitVec(3)}), contract_violation);
}

// Property sweep: random candidate sets; the tree always resolves to the
// planted truth, with at most leaves-1 internal nodes and depth-many
// queries.
class DecisionTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionTreeProperty, ResolvesPlantedTruth) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t len = 4 + rng.below(60);
    const std::size_t count = 2 + rng.below(12);
    std::set<std::string> uniq;
    std::vector<BitVec> cands;
    while (cands.size() < count) {
      const BitVec c = BitVec::generate(len, [&] { return rng.flip(); });
      if (uniq.insert(c.to_string()).second) cands.push_back(c);
    }
    const DecisionTree tree(cands);
    EXPECT_EQ(tree.internal_nodes(), cands.size() - 1);
    EXPECT_LE(tree.depth(), tree.internal_nodes());

    // Any candidate can be the truth; determine must find it exactly.
    const BitVec& truth = cands[rng.below(cands.size())];
    CountingOracle oracle(truth);
    EXPECT_EQ(tree.determine(std::ref(oracle)), truth);
    EXPECT_LE(oracle.queries, tree.depth());
  }
}

TEST_P(DecisionTreeProperty, WithoutTruthReturnsConsistentCandidate) {
  // If the truth is NOT among the candidates (the below-tau w.h.p. failure
  // case), the returned candidate still agrees with the truth on every
  // queried separator — the documented weak guarantee.
  Rng rng(GetParam() * 31 + 5);
  const std::size_t len = 16;
  std::set<std::string> uniq;
  std::vector<BitVec> cands;
  while (cands.size() < 6) {
    const BitVec c = BitVec::generate(len, [&] { return rng.flip(); });
    if (uniq.insert(c.to_string()).second) cands.push_back(c);
  }
  BitVec truth;
  do {
    truth = BitVec::generate(len, [&] { return rng.flip(); });
  } while (uniq.contains(truth.to_string()));

  const DecisionTree tree(cands);
  std::vector<std::size_t> asked;
  const BitVec& winner = tree.determine([&](std::size_t i) {
    asked.push_back(i);
    return truth.get(i);
  });
  for (std::size_t i : asked) EXPECT_EQ(winner.get(i), truth.get(i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace asyncdr::proto
