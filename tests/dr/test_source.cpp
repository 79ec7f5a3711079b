#include "dr/source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "support/bits.hpp"

namespace asyncdr::dr {
namespace {

using support::from_string;
using Runs = std::vector<Interval>;

/// Bit i of X as peer `by` reads it: a batch of one unit run.
bool query_bit(Source& src, sim::PeerId by, std::size_t i) {
  return src.query_runs(by, Runs{{i, i + 1}}).get(0);
}

TEST(Source, AnswersTruthfully) {
  Source src(from_string("10110"), 3);
  EXPECT_TRUE(query_bit(src, 0, 0));
  EXPECT_FALSE(query_bit(src, 0, 1));
  EXPECT_EQ(src.query_runs(1, Runs{{1, 4}}).to_string(), "011");
  EXPECT_EQ(src.query_runs(2, Runs{{0, 1}, {4, 5}}).to_string(), "10");
  EXPECT_EQ(src.query_runs(2, Runs{{0, 2}, {3, 5}}).to_string(), "1010");
}

TEST(Source, AccountsPerPeerBits) {
  Source src(BitVec(100), 2);
  (void)query_bit(src, 0, 5);
  src.query_runs(0, Runs{{10, 30}});
  src.query_runs(1, Runs{{1, 4}});
  EXPECT_EQ(src.bits_queried(0), 21u);
  EXPECT_EQ(src.bits_queried(1), 3u);
  EXPECT_EQ(src.total_bits_served(), 24u);
}

TEST(Source, RepeatQueriesBilledAgain) {
  // Query complexity counts queries, not distinct bits learned.
  Source src(BitVec(10), 1);
  (void)query_bit(src, 0, 3);
  (void)query_bit(src, 0, 3);
  EXPECT_EQ(src.bits_queried(0), 2u);
}

TEST(Source, IndexRecording) {
  Source src(BitVec(50), 2);
  src.enable_index_recording(true);
  (void)query_bit(src, 0, 7);
  src.query_runs(0, Runs{{10, 15}});
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
  Source src(from_string("0000"), 2);
  src.set_overlay(1, from_string("1111"));
  EXPECT_FALSE(query_bit(src, 0, 2));
  EXPECT_TRUE(query_bit(src, 1, 2));
  // Accounting still applies to overlay queries.
  EXPECT_EQ(src.bits_queried(1), 1u);
  // Ground truth unchanged.
  EXPECT_EQ(src.data().to_string(), "0000");
}

TEST(Source, SetDataKeepsCounters) {
  Source src(from_string("00"), 1);
  (void)query_bit(src, 0, 0);
  src.set_data(from_string("11"));
  EXPECT_TRUE(query_bit(src, 0, 0));
  EXPECT_EQ(src.bits_queried(0), 2u);
  EXPECT_THROW(src.set_data(BitVec(3)), contract_violation);
}

TEST(Source, BoundsChecked) {
  Source src(BitVec(8), 2);
  EXPECT_THROW((void)query_bit(src, 0, 8), contract_violation);
  EXPECT_THROW((void)query_bit(src, 2, 0), contract_violation);
  EXPECT_THROW(src.query_runs(0, Runs{{5, 9}}), contract_violation);
  EXPECT_THROW(src.set_overlay(0, BitVec(9)), contract_violation);
}

TEST(Source, OutOfBoundsMessageNamesIndexAndArraySize) {
  Source src(BitVec(8), 2);
  try {
    (void)query_bit(src, 0, 12);
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Source::query"), std::string::npos) << what;
    EXPECT_NE(what.find("index 12"), std::string::npos) << what;
    EXPECT_NE(what.find("n=8"), std::string::npos) << what;
  }
}

TEST(Source, QueryRunsRejectsAnyOutOfRangeRun) {
  Source src(BitVec(8), 1);
  EXPECT_THROW(src.query_runs(0, Runs{{0, 1}, {3, 9}}), contract_violation);
  try {
    src.query_runs(0, Runs{{0, 1}, {3, 4}, {9, 10}});
    FAIL() << "expected contract_violation";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("index 9"), std::string::npos)
        << e.what();
  }
}

TEST(Source, QueryRunsRejectsMalformedBatches) {
  // Runs must be non-empty, ascending and disjoint (adjacent is fine).
  Source src(BitVec(8), 1);
  // The full range is one run.
  EXPECT_EQ(src.query_runs(0, Runs{{0, 8}}).size(), 8u);
  EXPECT_EQ(src.bits_queried(0), 8u);
  for (const Runs& runs : {Runs{{2, 2}}, Runs{{3, 2}}, Runs{{4, 6}, {0, 1}},
                           Runs{{0, 3}, {2, 5}}}) {
    EXPECT_THROW(src.query_runs(0, runs), contract_violation);
  }
  EXPECT_EQ(src.bits_queried(0), 8u);
  EXPECT_EQ(src.query_runs(0, Runs{{0, 3}, {3, 5}}).size(), 5u);
}

/// Random run batches: a few ascending, disjoint runs of unit or longer
/// length, adjacent ones included.
std::vector<Interval> random_runs(Rng& rng, std::size_t n) {
  std::vector<Interval> out;
  const std::size_t pieces = rng.below(12);
  std::size_t floor = 0;
  for (std::size_t p = 0; p < pieces && floor < n; ++p) {
    const std::size_t lo = floor + (rng.flip() ? 0 : rng.below(n - floor));
    const std::size_t len = rng.flip() ? 1 : 1 + rng.below(150);
    if (lo >= n) break;
    out.push_back(Interval{lo, std::min(n, lo + len)});
    floor = out.back().hi;
  }
  return out;
}

TEST(Source, QueryRunsMatchesPerIndexReference) {
  // One query_runs call against the same runs queried a unit run at a time:
  // same answers, counts and recorded indices, and one observer call
  // carrying the whole batch (an empty batch is no batch).
  constexpr std::size_t kN = 700;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const BitVec data = BitVec::generate(kN, [&] { return rng.flip(); });
    const std::vector<Interval> runs = random_runs(rng, kN);
    Source batch(data, 2);
    Source single(data, 2);
    for (Source* s : {&batch, &single}) s->enable_index_recording(true);
    std::vector<std::pair<sim::PeerId, std::size_t>> calls;
    batch.set_query_observer([&](sim::PeerId peer, std::size_t bits) {
      calls.emplace_back(peer, bits);
    });
    const BitVec got = batch.query_runs(1, runs);
    std::size_t j = 0;
    for (const Interval& run : runs) {
      for (std::size_t i = run.lo; i < run.hi; ++i, ++j) {
        ASSERT_LT(j, got.size());
        ASSERT_EQ(got.get(j), query_bit(single, 1, i)) << "seed " << seed;
      }
    }
    ASSERT_EQ(got.size(), j);
    EXPECT_EQ(batch.bits_queried(1), single.bits_queried(1));
    EXPECT_EQ(batch.bits_queried(0), 0u);
    EXPECT_EQ(batch.total_bits_served(), single.total_bits_served());
    EXPECT_EQ(batch.queried_indices(1), single.queried_indices(1));
    using Calls = std::vector<std::pair<sim::PeerId, std::size_t>>;
    const Calls want = j == 0 ? Calls{} : Calls{{1, j}};
    EXPECT_EQ(calls, want) << "seed " << seed;
  }
}

TEST(Source, QueryRunsOutOfBoundsChargesNothing) {
  // A batch with any run out of bounds throws before anything is charged,
  // recorded or observed, wherever in the batch (or in a run) the first
  // index out of bounds is.
  Source src(BitVec(8), 1);
  src.enable_index_recording(true);
  std::size_t observed = 0;
  src.set_query_observer([&](sim::PeerId, std::size_t) { ++observed; });
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const std::vector<std::pair<std::vector<Interval>, std::string>> batches = {
      {{{0, 3}, {8, 9}}, "index 8"},
      {{{6, 10}}, "index 8"},
      {{{9, 10}, {11, 12}}, "index 9"},
      {{{3, 4}, {12, 14}}, "index 12"},
      {{{huge - 1, huge}}, "index " + std::to_string(huge - 1)},
      {{{0, 1}, {2, huge}}, "index 8"}};
  for (const auto& [runs, named] : batches) {
    try {
      (void)src.query_runs(0, runs);
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
