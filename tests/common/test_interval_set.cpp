#include "common/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace asyncdr {
namespace {

TEST(IntervalSet, EmptyByDefault) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(IntervalSet, InsertSingleAndContains) {
  IntervalSet s;
  s.insert(5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(6));
}

TEST(IntervalSet, CoalescesAdjacentInserts) {
  IntervalSet s;
  s.insert(0, 5);
  s.insert(5, 10);
  EXPECT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.count(), 10u);
}

TEST(IntervalSet, MergesOverlaps) {
  IntervalSet s;
  s.insert(0, 4);
  s.insert(10, 14);
  s.insert(2, 12);
  EXPECT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.count(), 14u);
}

TEST(IntervalSet, KeepsGaps) {
  IntervalSet s;
  s.insert(0, 3);
  s.insert(5, 8);
  EXPECT_EQ(s.intervals().size(), 2u);
  EXPECT_EQ(s.count(), 6u);
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(IntervalSet, EraseSplitsInterval) {
  IntervalSet s = IntervalSet::of(0, 10);
  s.erase(3, 6);
  EXPECT_EQ(s.intervals().size(), 2u);
  EXPECT_EQ(s.count(), 7u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.contains(6));
}

TEST(IntervalSet, EraseEdges) {
  IntervalSet s = IntervalSet::of(5, 15);
  s.erase(0, 7);
  EXPECT_EQ(s, IntervalSet::of(7, 15));
  s.erase(12, 100);
  EXPECT_EQ(s, IntervalSet::of(7, 12));
}

TEST(IntervalSet, SetAlgebra) {
  IntervalSet a = IntervalSet::of(0, 10);
  IntervalSet b = IntervalSet::of(5, 15);
  IntervalSet u = a;
  u.unite(b);
  EXPECT_EQ(u, IntervalSet::of(0, 15));
  IntervalSet i = a;
  i.intersect(b);
  EXPECT_EQ(i, IntervalSet::of(5, 10));
  IntervalSet d = a;
  d.subtract(b);
  EXPECT_EQ(d, IntervalSet::of(0, 5));
}

TEST(IntervalSet, IntersectDisjointPieces) {
  IntervalSet a;
  a.insert(0, 4);
  a.insert(8, 12);
  IntervalSet b = IntervalSet::of(2, 10);
  a.intersect(b);
  IntervalSet want;
  want.insert(2, 4);
  want.insert(8, 10);
  EXPECT_EQ(a, want);
}

TEST(IntervalSet, FullIsOneInterval) {
  const IntervalSet s = IntervalSet::full(5);
  EXPECT_EQ(s.intervals(), (std::vector<Interval>{{0, 5}}));
  EXPECT_EQ(s.count(), 5u);
}

TEST(IntervalSet, SplitEvenlyBalances) {
  const IntervalSet s = IntervalSet::of(0, 10);
  const auto parts = s.split_evenly(3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].count(), 4u);
  EXPECT_EQ(parts[1].count(), 3u);
  EXPECT_EQ(parts[2].count(), 3u);
  // Parts are disjoint and cover the set, in order.
  IntervalSet merged;
  for (const auto& p : parts) {
    IntervalSet overlap = merged;
    overlap.intersect(p);
    EXPECT_TRUE(overlap.empty());
    merged.unite(p);
  }
  EXPECT_EQ(merged, s);
}

TEST(IntervalSet, SplitEvenlyMorePartsThanElements) {
  const IntervalSet s = IntervalSet::of(0, 2);
  const auto parts = s.split_evenly(5);
  ASSERT_EQ(parts.size(), 5u);
  std::size_t total = 0;
  for (const auto& p : parts) {
    EXPECT_LE(p.count(), 1u);
    total += p.count();
  }
  EXPECT_EQ(total, 2u);
}

TEST(IntervalSet, SplitEvenlyEmptySet) {
  const auto parts = IntervalSet().split_evenly(4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) EXPECT_TRUE(p.empty());
}

TEST(IntervalSet, InvalidArgsThrow) {
  IntervalSet s;
  EXPECT_THROW(s.insert(5, 4), contract_violation);
  EXPECT_THROW(s.erase(5, 4), contract_violation);
  EXPECT_THROW(s.split_evenly(0), contract_violation);
}

// Property sweep against a reference std::set implementation.
class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetProperty, MatchesReferenceSet) {
  Rng rng(GetParam());
  IntervalSet s;
  std::set<std::size_t> ref;
  constexpr std::size_t kUniverse = 300;
  for (int op = 0; op < 200; ++op) {
    const auto lo = static_cast<std::size_t>(rng.below(kUniverse));
    const auto hi = lo + static_cast<std::size_t>(rng.below(kUniverse - lo + 1));
    if (rng.flip(0.6)) {
      s.insert(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) ref.insert(i);
    } else {
      s.erase(lo, hi);
      for (std::size_t i = lo; i < hi; ++i) ref.erase(i);
    }
    ASSERT_EQ(s.count(), ref.size());
  }
  for (std::size_t i = 0; i < kUniverse; ++i) {
    EXPECT_EQ(s.contains(i), ref.contains(i)) << "index " << i;
  }
  // Invariant: intervals sorted, disjoint, non-adjacent, non-empty.
  const auto& ivs = s.intervals();
  for (std::size_t j = 0; j < ivs.size(); ++j) {
    EXPECT_LT(ivs[j].lo, ivs[j].hi);
    if (j > 0) {
      EXPECT_LT(ivs[j - 1].hi, ivs[j].lo);
    }
  }
}

TEST_P(IntervalSetProperty, SplitEvenlyPartition) {
  Rng rng(GetParam() * 13 + 1);
  IntervalSet s;
  for (int i = 0; i < 10; ++i) {
    const auto lo = static_cast<std::size_t>(rng.below(500));
    s.insert(lo, lo + static_cast<std::size_t>(rng.below(30)));
  }
  const std::size_t parts_count = 1 + static_cast<std::size_t>(rng.below(9));
  const auto parts = s.split_evenly(parts_count);
  IntervalSet merged;
  std::size_t max_size = 0, min_size = SIZE_MAX;
  for (const auto& p : parts) {
    merged.unite(p);
    max_size = std::max(max_size, p.count());
    min_size = std::min(min_size, p.count());
  }
  EXPECT_EQ(merged, s);
  if (!s.empty()) {
    EXPECT_LE(max_size - min_size, 1u);
  }
}

// The set-building erase that erase, subtract and crash_one's coverage
// test used before they worked in place: a new vector per call.
std::vector<Interval> reference_erase(const std::vector<Interval>& ivs,
                                      std::size_t lo, std::size_t hi) {
  if (lo == hi) return ivs;
  std::vector<Interval> out;
  for (const Interval& iv : ivs) {
    if (iv.hi <= lo || iv.lo >= hi) {
      out.push_back(iv);
      continue;
    }
    if (iv.lo < lo) out.push_back(Interval{iv.lo, lo});
    if (iv.hi > hi) out.push_back(Interval{hi, iv.hi});
  }
  return out;
}

std::size_t total(const std::vector<Interval>& ivs) {
  std::size_t n = 0;
  for (const Interval& iv : ivs) n += iv.length();
  return n;
}

IntervalSet random_set(Rng& rng, std::size_t universe, int pieces) {
  IntervalSet s;
  for (int i = 0; i < pieces; ++i) {
    const auto lo = static_cast<std::size_t>(rng.below(universe));
    s.insert(lo, std::min(universe, lo + 1 + rng.below(40)));
  }
  return s;
}

TEST_P(IntervalSetProperty, InPlaceEditsMatchSetBuildingReference) {
  Rng rng(GetParam() * 7 + 3);
  constexpr std::size_t kUniverse = 400;
  for (int trial = 0; trial < 60; ++trial) {
    const IntervalSet base = random_set(rng, kUniverse, 1 + trial % 12);
    // erase: random ranges, plus one interval's exact bounds and a range
    // strictly inside one interval (the split).
    std::vector<Interval> ranges;
    for (int r = 0; r < 6; ++r) {
      const auto lo = static_cast<std::size_t>(rng.below(kUniverse));
      ranges.push_back({lo, lo + rng.below(kUniverse - lo + 1)});
    }
    if (!base.empty()) {
      const Interval iv = base.intervals()[rng.below(base.intervals().size())];
      ranges.push_back(iv);
      if (iv.length() >= 3) ranges.push_back({iv.lo + 1, iv.hi - 1});
    }
    for (const Interval& range : ranges) {
      IntervalSet s = base;
      s.erase(range.lo, range.hi);
      const auto want = reference_erase(base.intervals(), range.lo, range.hi);
      EXPECT_EQ(s.intervals(), want);
      EXPECT_EQ(s.count(), total(want));
    }
    // subtract: one erase per interval of the other set.
    const IntervalSet other = random_set(rng, kUniverse, 1 + trial % 7);
    IntervalSet diff = base;
    diff.subtract(other);
    std::vector<Interval> want = base.intervals();
    for (const Interval& iv : other.intervals()) {
      want = reference_erase(want, iv.lo, iv.hi);
    }
    EXPECT_EQ(diff.intervals(), want);
    EXPECT_EQ(diff.count(), total(want));
    // covers: the coverage test built {[lo, hi)} minus the set and asked
    // whether anything was left.
    for (const Interval& range : ranges) {
      for (int shift = -1; shift <= 1; ++shift) {
        const std::size_t lo =
            shift < 0 && range.lo > 0 ? range.lo - 1 : range.lo;
        const std::size_t hi = std::max(lo, shift > 0 ? range.hi + 1 : range.hi);
        std::vector<Interval> left =
            lo < hi ? std::vector<Interval>{{lo, hi}} : std::vector<Interval>{};
        for (const Interval& iv : base.intervals()) {
          left = reference_erase(left, iv.lo, iv.hi);
        }
        EXPECT_EQ(base.covers(lo, hi), left.empty())
            << base.to_string() << " [" << lo << "," << hi << ")";
      }
    }
  }
}

TEST(IntervalSet, CoversEdges) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_TRUE(s.covers(10, 20));
  EXPECT_TRUE(s.covers(12, 13));
  EXPECT_TRUE(s.covers(25, 25));  // the empty range
  EXPECT_FALSE(s.covers(9, 20));
  EXPECT_FALSE(s.covers(10, 21));
  EXPECT_FALSE(s.covers(15, 35));  // spans the gap
  EXPECT_FALSE(IntervalSet{}.covers(0, 1));
  EXPECT_THROW((void)s.covers(5, 4), contract_violation);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace asyncdr
