#include "protocols/chunk.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/message.hpp"
#include "support/bits.hpp"
#include "support/chunk.hpp"

namespace asyncdr::proto {
namespace {

using support::from_string;

TEST(BitChunk, ExtractApplyRoundTrip) {
  const BitVec src = from_string("1011001110");
  IntervalSet idx;
  idx.insert(1, 4);
  idx.insert(7, 9);
  const BitChunk chunk = BitChunk::extract(src, idx);
  EXPECT_EQ(chunk.count(), 5u);
  EXPECT_EQ(chunk.values.to_string(), "01111");

  BitVec out(10);
  IntervalSet known;
  chunk.apply_to(out, known);
  EXPECT_EQ(out.to_string(), "0011000110");
  EXPECT_EQ(known, idx);
}

TEST(BitChunk, CoversSubsets) {
  IntervalSet idx = IntervalSet::of(0, 10);
  const BitChunk chunk = BitChunk::extract(BitVec(20), idx);
  EXPECT_TRUE(chunk.covers(IntervalSet::of(2, 8)));
  EXPECT_TRUE(chunk.covers(IntervalSet{}));
  EXPECT_FALSE(chunk.covers(IntervalSet::of(5, 11)));
}

TEST(BitChunk, EmptyChunk) {
  const BitChunk chunk;
  EXPECT_TRUE(chunk.empty());
  BitVec out(5);
  IntervalSet known;
  chunk.apply_to(out, known);
  EXPECT_TRUE(known.empty());
}

TEST(BitChunk, MismatchedSizesThrow) {
  EXPECT_THROW(BitChunk(IntervalSet::of(0, 3), BitVec(2)), contract_violation);
}

TEST(BitChunk, SizeBitsCountsValuesAndBounds) {
  IntervalSet idx;
  idx.insert(0, 4);
  idx.insert(8, 12);
  const BitChunk chunk = BitChunk::extract(BitVec(20), idx);
  EXPECT_EQ(chunk.size_bits(), 8u + 2 * 128u);
}

TEST(BitChunk, ExtractApplyMatchPerBitReference) {
  // Random interval sets of every alignment over random arrays, against
  // the per-bit definitions: values.get(j) is src at the j-th smallest
  // index, and apply_to writes exactly those indices.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const std::size_t n = 1 + rng.below(600);
    const BitVec src = BitVec::generate(n, [&] { return rng.flip(); });
    IntervalSet idx;
    const std::size_t pieces = rng.below(8);
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t lo = rng.below(n);
      idx.insert(lo, lo + 1 + rng.below(std::min<std::size_t>(n - lo, 200)));
    }
    const BitChunk chunk = BitChunk::extract(src, idx);
    std::vector<std::size_t> at;
    for (const Interval& iv : idx.intervals()) {
      for (std::size_t i = iv.lo; i < iv.hi; ++i) at.push_back(i);
    }
    ASSERT_EQ(chunk.values.size(), at.size());
    for (std::size_t j = 0; j < at.size(); ++j) {
      ASSERT_EQ(chunk.values.get(j), src.get(at[j])) << "seed " << seed;
    }

    const BitVec before = BitVec::generate(n, [&] { return rng.flip(); });
    BitVec want = before;
    for (std::size_t j = 0; j < at.size(); ++j) {
      want.set(at[j], chunk.values.get(j));
    }
    BitVec out = before;
    IntervalSet known = IntervalSet::of(0, 1);
    chunk.apply_to(out, known);
    EXPECT_EQ(out, want) << "seed " << seed;
    IntervalSet want_known = IntervalSet::of(0, 1);
    want_known.unite(idx);
    EXPECT_EQ(known, want_known);
  }
  // An interval past the target array is rejected.
  const BitChunk wide = BitChunk::extract(BitVec(20), IntervalSet::of(8, 20));
  BitVec short_out(19);
  IntervalSet known;
  EXPECT_THROW(wide.apply_to(short_out, known), contract_violation);
}

TEST(MaskChunk, ExtractApplyRoundTrip) {
  const BitVec src = from_string("1011001110");
  BitVec mask(10);
  mask.set(0, true);
  mask.set(2, true);
  mask.set(9, true);
  const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
  EXPECT_EQ(chunk.size(), 10u);
  EXPECT_EQ(chunk.count(), 3u);
  EXPECT_FALSE(chunk.empty());

  BitVec out(10);
  BitVec known(10);
  chunk.apply_to(out, known);
  EXPECT_EQ(out.to_string(), "1010000000");
  EXPECT_EQ(known, mask);
}

TEST(MaskChunk, MismatchedThrow) {
  EXPECT_THROW((void)MaskChunk::extract(BitVec(5), SparseMask(BitVec(6))),
               contract_violation);
  const MaskChunk c = MaskChunk::extract(BitVec(5), SparseMask(BitVec(5)));
  EXPECT_TRUE(c.empty());
  BitVec out(6), known(6);
  EXPECT_THROW(c.apply_to(out, known), contract_violation);
  EXPECT_THROW((void)c.is_subset_of(known), contract_violation);
  EXPECT_THROW((void)c.check(out, known), contract_violation);
}

TEST(MaskChunk, WireSizeChargesValuesOnly) {
  const MaskChunk c =
      MaskChunk::extract(BitVec(1000), SparseMask(BitVec(1000, true)));
  EXPECT_EQ(c.size_bits(), 1000u + 64u);
}

TEST(MaskChunk, EqualityAndHashFollowContent) {
  Rng rng(5);
  const BitVec src = BitVec::generate(300, [&] { return rng.flip(); });
  const BitVec mask = BitVec::generate(300, [&] { return rng.flip(0.1); });
  const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
  const MaskChunk same = MaskChunk::extract(src, SparseMask(mask));
  EXPECT_EQ(chunk, same);
  EXPECT_EQ(chunk.hash(), same.hash());

  std::size_t first = 0;
  while (!mask.get(first)) ++first;
  BitVec flipped = src;
  flipped.flip(first);
  const MaskChunk other_value = MaskChunk::extract(flipped, SparseMask(mask));
  EXPECT_FALSE(chunk == other_value);
  EXPECT_NE(chunk.hash(), other_value.hash());
  // A value outside the mask is not part of the chunk.
  std::size_t gap = 0;
  while (mask.get(gap)) ++gap;
  BitVec outside = src;
  outside.flip(gap);
  EXPECT_EQ(MaskChunk::extract(outside, SparseMask(mask)), chunk);
  BitVec fewer = mask;
  fewer.set(first, false);
  EXPECT_FALSE(chunk == MaskChunk::extract(src, SparseMask(fewer)));
  EXPECT_FALSE(chunk == MaskChunk::extract(BitVec(301), SparseMask(BitVec(301))));
}

TEST(MaskChunk, RandomRoundTripProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    const BitVec src = BitVec::generate(n, [&] { return rng.flip(); });
    const BitVec mask = BitVec::generate(n, [&] { return rng.flip(0.3); });
    const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
    EXPECT_EQ(chunk.count(), mask.popcount());
    EXPECT_EQ(chunk.size_bits(), mask.popcount() + 64);
    BitVec out(n), known(n);
    chunk.apply_to(out, known);
    EXPECT_EQ(known, mask);
    mask.for_each_set(
        [&](std::size_t i) { EXPECT_EQ(out.get(i), src.get(i)); });
  }
}

TEST(MaskChunk, ChecksMatchPerBitReference) {
  // is_subset_of (Claim 1) and check's value agreement against their
  // per-bit definitions, with n % 64 != 0 and masks of every density.
  Rng rng(91);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.below(400);
    const BitVec src = BitVec::generate(n, [&] { return rng.flip(); });
    const BitVec mask =
        BitVec::generate(n, [&, p = rng.uniform01()] { return rng.flip(p); });
    const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
    BitVec known = mask;
    BitVec other = src;
    for (int edits = 0; edits < 2; ++edits) {
      known.flip(static_cast<std::size_t>(rng.below(n)));
      other.flip(static_cast<std::size_t>(rng.below(n)));
    }
    bool subset = true;
    bool agrees = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask.get(i)) continue;
      subset = subset && known.get(i);
      agrees = agrees && other.get(i) == src.get(i);
    }
    EXPECT_EQ(chunk.is_subset_of(known), subset);
    EXPECT_EQ(chunk.check(other, known).agrees, agrees);
    EXPECT_TRUE(chunk.is_subset_of(mask));
    EXPECT_TRUE(chunk.check(src, mask).agrees);
  }
}

TEST(MaskChunk, FusedCheckIsBothChecks) {
  // check() against is_subset_of and the apply_to-based reference
  // support::agrees_with on random chunks, value arrays and known masks; 0
  // to 3 flips each, so every outcome occurs.
  Rng rng(93);
  std::size_t outcomes[2][2] = {};
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.below(700);
    const BitVec src = rng.fair_bits(n);
    const BitVec mask =
        BitVec::generate(n, [&, p = rng.uniform01()] { return rng.flip(p); });
    const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
    BitVec known = rng.flip() ? BitVec(n, true) : mask;
    BitVec other = src;
    for (std::uint64_t e = rng.below(4); e > 0; --e) {
      known.flip(static_cast<std::size_t>(rng.below(n)));
    }
    for (std::uint64_t e = rng.below(4); e > 0; --e) {
      other.flip(static_cast<std::size_t>(rng.below(n)));
    }
    const MaskChunk::Checks checks = chunk.check(other, known);
    EXPECT_EQ(checks.agrees, support::agrees_with(chunk, other))
        << "trial " << trial;
    EXPECT_EQ(checks.held, chunk.is_subset_of(known)) << "trial " << trial;
    ++outcomes[checks.agrees][checks.held];
  }
  for (const auto& row : outcomes) {
    for (const std::size_t count : row) EXPECT_GT(count, 0u);
  }
  const MaskChunk chunk =
      MaskChunk::extract(BitVec(100), SparseMask(BitVec(100, true)));
  EXPECT_THROW((void)chunk.check(BitVec(99), BitVec(100)), contract_violation);
  EXPECT_THROW((void)chunk.check(BitVec(100), BitVec(99)), contract_violation);
}

TEST(MaskChunk, ApplyCountsNewlyKnownBits) {
  Rng rng(94);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.below(700);
    const BitVec src = rng.fair_bits(n);
    const BitVec mask = BitVec::generate(n, [&] { return rng.flip(0.3); });
    const MaskChunk chunk = MaskChunk::extract(src, SparseMask(mask));
    BitVec known =
        BitVec::generate(n, [&, p = rng.uniform01()] { return rng.flip(p); });
    BitVec fresh = mask;
    fresh.andnot_with(known);
    const std::size_t before = known.popcount();
    BitVec out(n);
    EXPECT_EQ(chunk.apply_to(out, known).learned, fresh.popcount());
    EXPECT_EQ(known.popcount(), before + fresh.popcount());
    EXPECT_EQ(chunk.apply_to(out, known).learned, 0u);  // nothing new the second time
  }
}

}  // namespace
}  // namespace asyncdr::proto
