#include "dr/source.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace asyncdr::dr {
namespace {

TEST(Source, AnswersTruthfully) {
  Source src(BitVec::from_string("10110"), 3);
  EXPECT_TRUE(src.query(0, 0));
  EXPECT_FALSE(src.query(0, 1));
  EXPECT_EQ(src.query_range(1, 1, 3).to_string(), "011");
  EXPECT_EQ(src.query_indices(2, {4, 0}).to_string(), "01");
}

TEST(Source, AccountsPerPeerBits) {
  Source src(BitVec(100), 2);
  src.query(0, 5);
  src.query_range(0, 10, 20);
  src.query_indices(1, {1, 2, 3});
  EXPECT_EQ(src.bits_queried(0), 21u);
  EXPECT_EQ(src.bits_queried(1), 3u);
  src.reset_accounting();
  EXPECT_EQ(src.bits_queried(0), 0u);
}

TEST(Source, RepeatQueriesBilledAgain) {
  // Query complexity counts queries, not distinct bits learned.
  Source src(BitVec(10), 1);
  src.query(0, 3);
  src.query(0, 3);
  EXPECT_EQ(src.bits_queried(0), 2u);
}

TEST(Source, IndexRecording) {
  Source src(BitVec(50), 2);
  src.enable_index_recording(true);
  src.query(0, 7);
  src.query_range(0, 10, 5);
  const IntervalSet& q = src.queried_indices(0);
  EXPECT_TRUE(q.contains(7));
  EXPECT_TRUE(q.contains(12));
  EXPECT_FALSE(q.contains(8));
  EXPECT_EQ(q.count(), 6u);
}

TEST(Source, RecordingDisabledThrows) {
  Source src(BitVec(10), 1);
  EXPECT_THROW((void)src.queried_indices(0), contract_violation);
}

TEST(Source, OverlayRedirectsOnePeerOnly) {
  Source src(BitVec::from_string("0000"), 2);
  src.set_overlay(1, BitVec::from_string("1111"));
  EXPECT_FALSE(src.query(0, 2));
  EXPECT_TRUE(src.query(1, 2));
  // Accounting still applies to overlay queries.
  EXPECT_EQ(src.bits_queried(1), 1u);
  // Ground truth unchanged.
  EXPECT_EQ(src.data().to_string(), "0000");
}

TEST(Source, SetDataKeepsCounters) {
  Source src(BitVec::from_string("00"), 1);
  src.query(0, 0);
  src.set_data(BitVec::from_string("11"));
  EXPECT_TRUE(src.query(0, 0));
  EXPECT_EQ(src.bits_queried(0), 2u);
  EXPECT_THROW(src.set_data(BitVec(3)), contract_violation);
}

TEST(Source, BoundsChecked) {
  Source src(BitVec(8), 2);
  EXPECT_THROW(src.query(0, 8), contract_violation);
  EXPECT_THROW(src.query(2, 0), contract_violation);
  EXPECT_THROW(src.query_range(0, 5, 4), contract_violation);
  EXPECT_THROW(src.set_overlay(0, BitVec(9)), contract_violation);
}

TEST(Source, OutOfBoundsMessageNamesIndexAndArraySize) {
  Source src(BitVec(8), 2);
  try {
    src.query(0, 12);
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Source::query"), std::string::npos) << what;
    EXPECT_NE(what.find("index 12"), std::string::npos) << what;
    EXPECT_NE(what.find("n=8"), std::string::npos) << what;
  }
}

TEST(Source, QueryRangeRejectsOverflowingRanges) {
  Source src(BitVec(8), 1);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  // lo + len wraps around; the naive `lo + len <= n` check would pass.
  EXPECT_THROW(src.query_range(0, 2, huge), contract_violation);
  EXPECT_THROW(src.query_range(0, huge, 2), contract_violation);
  EXPECT_THROW(src.query_range(0, 8, 1), contract_violation);
  // The full range is still fine.
  EXPECT_EQ(src.query_range(0, 0, 8).size(), 8u);
}

TEST(Source, QueryIndicesRejectsAnyOutOfRangeIndex) {
  Source src(BitVec(8), 1);
  EXPECT_THROW(src.query_indices(0, {0, 3, 8}), contract_violation);
  try {
    src.query_indices(0, {0, 3, 9});
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("index 9"), std::string::npos)
        << e.what();
  }
}

/// Random index lists mixing runs of consecutive indices with singletons,
/// in any order (repeats allowed).
std::vector<std::size_t> random_index_list(Rng& rng, std::size_t n) {
  std::vector<std::size_t> out;
  const std::size_t pieces = rng.below(12);
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t len = rng.flip() ? 1 : 1 + rng.below(150);
    const std::size_t lo = rng.below(n - len + 1);
    for (std::size_t i = 0; i < len; ++i) out.push_back(lo + i);
  }
  return out;
}

TEST(Source, QueryIndicesMatchesPerIndexReference) {
  // One query_indices call against the same list queried an index at a
  // time: same answers, counts and recorded indices, and one observer call
  // carrying the whole batch (an empty list is no batch).
  constexpr std::size_t kN = 700;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const BitVec data = BitVec::generate(kN, [&] { return rng.flip(); });
    const std::vector<std::size_t> indices = random_index_list(rng, kN);
    Source batch(data, 2);
    Source single(data, 2);
    for (Source* s : {&batch, &single}) s->enable_index_recording(true);
    std::vector<std::pair<sim::PeerId, std::size_t>> calls;
    batch.set_query_observer([&](sim::PeerId peer, std::size_t bits) {
      calls.emplace_back(peer, bits);
    });
    const BitVec got = batch.query_indices(1, indices);
    ASSERT_EQ(got.size(), indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
      ASSERT_EQ(got.get(j), single.query(1, indices[j])) << "seed " << seed;
    }
    EXPECT_EQ(batch.bits_queried(1), single.bits_queried(1));
    EXPECT_EQ(batch.bits_queried(0), 0u);
    EXPECT_EQ(batch.total_bits_served(), single.total_bits_served());
    EXPECT_EQ(batch.queried_indices(1), single.queried_indices(1));
    using Calls = std::vector<std::pair<sim::PeerId, std::size_t>>;
    const Calls want =
        indices.empty() ? Calls{} : Calls{{1, indices.size()}};
    EXPECT_EQ(calls, want) << "seed " << seed;
  }
}

TEST(Source, QueryIndicesOutOfBoundsChargesNothing) {
  // A list with any index out of bounds throws before anything is charged,
  // recorded or observed, wherever in the list (or in a run) that index is.
  Source src(BitVec(8), 1);
  src.enable_index_recording(true);
  std::size_t observed = 0;
  src.set_query_observer([&](sim::PeerId, std::size_t) { ++observed; });
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const std::vector<std::pair<std::vector<std::size_t>, std::string>> lists = {
      {{0, 1, 2, 8}, "index 8"},     {{6, 7, 8, 9}, "index 8"},
      {{9, 0, 1}, "index 9"},        {{3, 12, 13, 4}, "index 12"},
      {{huge}, "index " + std::to_string(huge)},
      {{huge, 0}, "index " + std::to_string(huge)}};
  for (const auto& [list, named] : lists) {
    try {
      (void)src.query_indices(0, list);
      ADD_FAILURE() << "expected contract_violation for " << named;
    } catch (const contract_violation& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(src.bits_queried(0), 0u);
  EXPECT_EQ(src.total_bits_served(), 0u);
  EXPECT_TRUE(src.queried_indices(0).empty());
  EXPECT_EQ(observed, 0u);
}

}  // namespace
}  // namespace asyncdr::dr
