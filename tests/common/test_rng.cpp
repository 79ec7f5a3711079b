#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"

namespace asyncdr {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) agree += (a.next() == b.next());
  EXPECT_LT(agree, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
  }
  EXPECT_THROW(rng.below(0), contract_violation);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr std::size_t kBuckets = 8;
  constexpr std::size_t kDraws = 80000;
  std::size_t counts[kBuckets] = {};
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), expect, expect * 0.08)
        << "bucket " << b;
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 200 draws
  EXPECT_EQ(rng.range(4, 4), 4);
  EXPECT_THROW(rng.range(3, 2), contract_violation);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, FlipProbability) {
  Rng rng(5);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.flip(0.25);
  EXPECT_NEAR(heads, 2500, 200);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng base(42);
  Rng a1 = base.split(1);
  Rng a2 = base.split(1);
  Rng b = base.split(2);
  // Same tag -> same stream; different tag -> different stream.
  int agree_same = 0, agree_diff = 0;
  for (int i = 0; i < 64; ++i) {
    const auto x = a1.next();
    agree_same += (x == a2.next());
    agree_diff += (x == b.next());
  }
  EXPECT_EQ(agree_same, 64);
  EXPECT_LT(agree_diff, 2);
}

TEST(Rng, SplitUnaffectedByDraws) {
  // split() must be a function of the seed, not of stream position, so
  // adding a consumer never perturbs another's stream.
  Rng a(42);
  (void)a.next();
  (void)a.next();
  Rng b(42);
  EXPECT_EQ(a.split(9).next(), b.split(9).next());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_FALSE(std::is_sorted(v.begin(), v.end()));  // overwhelmingly likely
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(21);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (std::size_t s : sample) EXPECT_LT(s, 50u);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), contract_violation);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleCoversUniverse) {
  Rng rng(31);
  const auto all = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(all.begin(), all.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, FairBitsAreThePerBitFlipStream) {
  // Same bits, and the same stream position after, as one flip() per bit.
  std::size_t mismatches = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    for (const std::size_t n : {0, 1, 63, 64, 65, 1000, 8191, 16384}) {
      Rng words(seed * 7919 + n);
      Rng bits(seed * 7919 + n);
      const BitVec packed = words.fair_bits(n);
      const BitVec reference = BitVec::generate(n, [&] { return bits.flip(); });
      mismatches += packed == reference && words.next() == bits.next() ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace asyncdr
