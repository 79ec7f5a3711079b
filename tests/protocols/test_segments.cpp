#include "protocols/segments.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.hpp"

namespace asyncdr::proto {
namespace {

TEST(SegmentLayout, EqualSplitBalancesWithinOne) {
  const SegmentLayout layout(10, 3);
  EXPECT_EQ(layout.count(), 3u);
  EXPECT_EQ(layout.length(0), 4u);
  EXPECT_EQ(layout.length(1), 3u);
  EXPECT_EQ(layout.length(2), 3u);
  EXPECT_EQ(layout.bounds(0), (Interval{0, 4}));
  EXPECT_EQ(layout.bounds(2), (Interval{7, 10}));
}

TEST(SegmentLayout, SegmentsCoverInputExactly) {
  const SegmentLayout layout(1000, 7);
  std::size_t total = 0;
  for (std::size_t i = 0; i < layout.count(); ++i) {
    total += layout.length(i);
    if (i > 0) {
      EXPECT_EQ(layout.bounds(i).lo, layout.bounds(i - 1).hi);
    }
  }
  EXPECT_EQ(total, 1000u);
}

TEST(SegmentLayout, SegmentOfInvertsBounds) {
  const SegmentLayout layout(100, 9);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::size_t seg = layout.segment_of(i);
    EXPECT_GE(i, layout.bounds(seg).lo);
    EXPECT_LT(i, layout.bounds(seg).hi);
  }
  EXPECT_THROW((void)layout.segment_of(100), contract_violation);
}

TEST(SegmentLayout, SingleSegment) {
  const SegmentLayout layout(42, 1);
  EXPECT_EQ(layout.count(), 1u);
  EXPECT_EQ(layout.bounds(0), (Interval{0, 42}));
}

TEST(SegmentLayout, MoreSegmentsThanBitsLeavesEmptyTail) {
  const SegmentLayout layout(3, 5);
  EXPECT_EQ(layout.count(), 5u);
  EXPECT_EQ(layout.length(0), 1u);
  EXPECT_EQ(layout.length(2), 1u);
  EXPECT_EQ(layout.length(3), 0u);
  EXPECT_EQ(layout.length(4), 0u);
}

TEST(SegmentLayout, CoarsenPairsAdjacent) {
  const SegmentLayout fine(16, 4);
  const SegmentLayout coarse = fine.coarsen();
  EXPECT_EQ(coarse.count(), 2u);
  EXPECT_EQ(coarse.bounds(0), (Interval{0, 8}));
  EXPECT_EQ(coarse.bounds(1), (Interval{8, 16}));
}

TEST(SegmentLayout, CoarsenOddCount) {
  const SegmentLayout fine(15, 5);
  const SegmentLayout coarse = fine.coarsen();
  EXPECT_EQ(coarse.count(), 3u);
  // Last coarse segment is the single leftover fine segment.
  EXPECT_EQ(coarse.bounds(2), fine.bounds(4));
}

TEST(SegmentLayout, SegmentsInComposeCoarseSegment) {
  const SegmentLayout fine(100, 7);
  const SegmentLayout coarse = fine.coarsen();
  for (std::size_t j = 0; j < coarse.count(); ++j) {
    const Interval kids = fine.segments_in(coarse.bounds(j));
    ASSERT_LT(kids.lo, kids.hi);
    EXPECT_EQ(fine.bounds(kids.lo).lo, coarse.bounds(j).lo);
    EXPECT_EQ(fine.bounds(kids.hi - 1).hi, coarse.bounds(j).hi);
    std::size_t len = 0;
    for (std::size_t kid = kids.lo; kid < kids.hi; ++kid) {
      len += fine.length(kid);
    }
    EXPECT_EQ(len, coarse.length(j));
  }
}

TEST(SegmentLayout, SegmentsInIsThePairingRuleOnTheCoarsenChain) {
  // Every level of the multi-cycle chain, from every cycle-1 count in
  // 1..65 (odd counts leave a lone last segment): coarse segment j holds
  // fine segments {2j, 2j+1}, or just {2j} when 2j is the last one.
  for (const std::size_t n : {65ul, 1000ul}) {
    for (std::size_t count = 1; count <= 65; ++count) {
      SegmentLayout fine(n, count);
      while (fine.count() > 1) {
        const SegmentLayout coarse = fine.coarsen();
        for (std::size_t j = 0; j < coarse.count(); ++j) {
          const Interval pairing{2 * j, std::min(2 * j + 2, fine.count())};
          EXPECT_EQ(fine.segments_in(coarse.bounds(j)), pairing)
              << "n=" << n << " count=" << fine.count() << " j=" << j;
        }
        fine = coarse;
      }
    }
  }
}

TEST(SegmentLayout, SegmentsInTheWholeInputIsEverySegment) {
  // The 2-cycle chain {s segments, 1 segment}, s = 1 included.
  for (const std::size_t n : {65ul, 1000ul}) {
    for (std::size_t s = 1; s <= 65; ++s) {
      const SegmentLayout fine(n, s);
      const SegmentLayout whole(n, 1);
      EXPECT_EQ(fine.segments_in(whole.bounds(0)), (Interval{0, s}))
          << "n=" << n << " s=" << s;
    }
  }
}

TEST(SegmentLayout, SegmentsInRejectsRangesOffTheBoundaries) {
  const SegmentLayout layout(100, 4);  // boundaries 0, 25, 50, 75, 100
  EXPECT_EQ(layout.segments_in(Interval{25, 75}), (Interval{1, 3}));
  EXPECT_EQ(layout.segments_in(Interval{50, 50}), (Interval{}));
  EXPECT_THROW((void)layout.segments_in(Interval{0, 30}), contract_violation);
  EXPECT_THROW((void)layout.segments_in(Interval{10, 50}), contract_violation);
}

TEST(SegmentLayout, RepeatedCoarsenReachesOneSegment) {
  SegmentLayout layout(1 << 10, 37);
  std::size_t steps = 0;
  while (layout.count() > 1) {
    const std::size_t before = layout.count();
    layout = layout.coarsen();
    EXPECT_EQ(layout.count(), (before + 1) / 2);
    ASSERT_LT(++steps, 30u);
  }
  EXPECT_EQ(layout.bounds(0), (Interval{0, 1 << 10}));
  EXPECT_THROW(layout.coarsen(), contract_violation);
}

TEST(SegmentLayout, RejectsBadArguments) {
  EXPECT_THROW(SegmentLayout(0, 1), contract_violation);
  EXPECT_THROW(SegmentLayout(10, 0), contract_violation);
}

// Parameterized sweep: layout invariants over many (n, s) shapes.
class SegmentLayoutSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SegmentLayoutSweep, PartitionInvariants) {
  const auto [n, s] = GetParam();
  const SegmentLayout layout(n, s);
  EXPECT_EQ(layout.count(), s);
  std::size_t total = 0;
  std::size_t min_len = SIZE_MAX, max_len = 0;
  for (std::size_t i = 0; i < s; ++i) {
    total += layout.length(i);
    min_len = std::min(min_len, layout.length(i));
    max_len = std::max(max_len, layout.length(i));
  }
  EXPECT_EQ(total, n);
  EXPECT_LE(max_len - min_len, 1u);
}

using Shape = std::pair<std::size_t, std::size_t>;
INSTANTIATE_TEST_SUITE_P(Shapes, SegmentLayoutSweep,
                         ::testing::Values(Shape{1, 1}, Shape{7, 7}, Shape{8, 3},
                                           Shape{1024, 31}, Shape{1000, 999},
                                           Shape{4096, 64}, Shape{65536, 17}));

}  // namespace
}  // namespace asyncdr::proto
