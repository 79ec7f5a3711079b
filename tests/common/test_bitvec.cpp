#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "support/bits.hpp"

namespace asyncdr {
namespace {

using support::from_string;

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, ConstructAllOne) {
  BitVec v(130, true);
  EXPECT_EQ(v.popcount(), 130u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_TRUE(v.get(i));
}

TEST(BitVec, SetGetFlip) {
  BitVec v(100);
  v.set(63, true);
  v.set(64, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(62));
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.set(64, false);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(10);
  EXPECT_THROW((void)v.get(10), contract_violation);
  EXPECT_THROW(v.set(10, true), contract_violation);
  EXPECT_THROW(v.flip(11), contract_violation);
}

TEST(BitVec, FromToString) {
  const BitVec v = from_string("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.to_string(), "10110");
  EXPECT_THROW(from_string("10x"), contract_violation);
}

TEST(BitVec, PushBack) {
  BitVec v;
  for (int i = 0; i < 70; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 70u);
  for (int i = 0; i < 70; ++i) EXPECT_EQ(v.get(i), i % 3 == 0);
}

TEST(BitVec, Splice) {
  BitVec w(12);
  w.splice(3, from_string("10011"));
  EXPECT_EQ(w.to_string(), "000100110000");
  EXPECT_THROW(w.splice(10, from_string("10011")), contract_violation);
}

TEST(BitVec, EqualityIgnoresNothing) {
  BitVec a(65), b(65);
  EXPECT_EQ(a, b);
  b.set(64, true);
  EXPECT_NE(a, b);
  b.set(64, false);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, BitVec(64));  // different sizes differ
}

TEST(BitVec, FirstDifference) {
  BitVec a(130), b(130);
  EXPECT_EQ(a.first_difference(b), std::nullopt);
  b.set(129, true);
  EXPECT_EQ(a.first_difference(b), 129u);
  b.set(7, true);
  EXPECT_EQ(a.first_difference(b), 7u);
  a.set(7, true);
  EXPECT_EQ(a.first_difference(b), 129u);
}

TEST(BitVec, FirstDifferenceSizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW((void)a.first_difference(b), contract_violation);
}

TEST(BitVec, HashDistinguishesContentAndSize) {
  const BitVec a = from_string("1010");
  const BitVec b = from_string("1011");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(BitVec(64).hash(), BitVec(65).hash());
  EXPECT_EQ(a.hash(), from_string("1010").hash());
}

TEST(BitVec, MaskAlgebra) {
  const BitVec a = from_string("110010");
  const BitVec b = from_string("011011");
  const BitVec i = from_string("010010");  // a & b
  BitVec d = a;
  d.andnot_with(b);
  EXPECT_EQ(d.to_string(), "100000");
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_TRUE(i.is_subset_of(b));
  EXPECT_FALSE(a.is_subset_of(b));
}

TEST(BitVec, ForEachSetVisitsInOrder) {
  BitVec v(200);
  const std::vector<std::size_t> want{0, 63, 64, 127, 128, 199};
  for (std::size_t i : want) v.set(i, true);
  std::vector<std::size_t> got;
  v.for_each_set([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitVec, GenerateMatchesCallback) {
  std::size_t calls = 0;
  const BitVec v = BitVec::generate(10, [&] { return (calls++ % 2) == 0; });
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(v.to_string(), "1010101010");
}

// Property sweep: random masks round-trip through copy_range/splice and
// satisfy algebra identities at many sizes (incl. word boundaries).
class BitVecProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecProperty, CopyRangeSpliceRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  const BitVec v = BitVec::generate(n, [&] { return rng.flip(); });
  for (int trial = 0; trial < 16; ++trial) {
    const auto lo = static_cast<std::size_t>(rng.below(n));
    const auto len = static_cast<std::size_t>(rng.below(n - lo + 1));
    BitVec part(len);
    part.copy_range(0, v, lo, len);
    BitVec w = v;
    w.splice(lo, part);  // splicing a copied range back must be a no-op
    EXPECT_EQ(w, v);
  }
}

TEST_P(BitVecProperty, DeMorgan) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 3);
  const BitVec a = BitVec::generate(n, [&] { return rng.flip(); });
  const BitVec b = BitVec::generate(n, [&] { return rng.flip(); });
  // a \ b is a subset of a and disjoint from b
  BitVec d = a;
  d.andnot_with(b);
  EXPECT_TRUE(d.is_subset_of(a));
  BitVec d_minus_b = d;
  d_minus_b.andnot_with(b);
  EXPECT_EQ(d_minus_b, d);
  // a \ (a \ b) = a & b, a subset of b, and |a| = |a \ b| + |a & b|
  BitVec both = a;
  both.andnot_with(d);
  EXPECT_TRUE(both.is_subset_of(b));
  EXPECT_EQ(a.popcount(), d.popcount() + both.popcount());
}

TEST_P(BitVecProperty, PopcountMatchesForEachSet) {
  const std::size_t n = GetParam();
  Rng rng(n + 99);
  const BitVec v = BitVec::generate(n, [&] { return rng.flip(); });
  std::size_t visits = 0;
  v.for_each_set([&](std::size_t i) {
    EXPECT_TRUE(v.get(i));
    ++visits;
  });
  EXPECT_EQ(visits, v.popcount());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecProperty,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

// ---- Word-level kernels against a per-bit reference. ----

/// True iff v is canonical: equal (word for word) to its own bits rebuilt
/// one at a time, i.e. the bits past size() are zero.
bool zero_tail(const BitVec& v) {
  return v == from_string(v.to_string());
}

BitVec random_bits(std::size_t n, Rng& rng) {
  return BitVec::generate(n, [&] { return rng.flip(); });
}

/// A mask whose words cycle through empty, full, sparse and dense, so the
/// kernels meet every word shape.
BitVec shaped_mask(std::size_t n, Rng& rng, std::size_t phase) {
  BitVec mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch ((i / 64 + phase) % 4) {
      case 0: break;
      case 1: mask.set(i, true); break;
      case 2: mask.set(i, rng.below(16) == 0); break;
      default: mask.set(i, rng.below(16) != 0); break;
    }
  }
  return mask;
}

class BitVecKernels : public ::testing::TestWithParam<std::size_t> {};

/// The dense mask a SparseMask stands for, rebuilt from its words.
BitVec dense_of(const SparseMask& sparse) {
  BitVec dense(sparse.size());
  sparse.for_each_word([&](std::size_t w, std::uint64_t bits) {
    for (std::size_t j = 0; j < 64; ++j) {
      if (((bits >> j) & 1u) != 0) dense.set(w * 64 + j, true);
    }
  });
  return dense;
}

TEST_P(BitVecKernels, WordAccessMatchesPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 5);
  const std::size_t words = (n + 63) / 64;
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const BitVec src = random_bits(n, rng);
    const BitVec mask =
        trial < 4 ? shaped_mask(n, rng, trial) : random_bits(n, rng);
    const BitVec known_before = random_bits(n, rng);
    std::vector<BitVec::MaskedWord> complement;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t want_word = 0;
      for (std::size_t j = 0; j < 64 && w * 64 + j < n; ++j) {
        want_word |= std::uint64_t{src.get(w * 64 + j)} << j;
      }
      EXPECT_EQ(src.word(w), want_word);
      EXPECT_EQ(src.words()[w], want_word);
      // The complement of src through the mask; values past the mask are
      // ignored.
      if (mask.word(w) != 0) {
        complement.push_back({w, mask.word(w), ~src.word(w)});
      }
    }
    EXPECT_EQ(src.words().size(), words);
    BitVec written = src;
    BitVec known = known_before;
    const std::size_t learned = written.assign_masked(complement, known);
    BitVec want = src;
    BitVec want_known = known_before;
    std::size_t want_learned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask.get(i)) continue;
      want.flip(i);
      if (!known_before.get(i)) ++want_learned;
      want_known.set(i, true);
    }
    EXPECT_EQ(written, want);
    EXPECT_EQ(known, want_known);
    EXPECT_EQ(learned, want_learned);
    EXPECT_TRUE(zero_tail(written));
    EXPECT_TRUE(zero_tail(known));

    // generate_words draws the same bits as generate, a word at a time.
    std::size_t next = 0;
    const BitVec rebuilt = BitVec::generate_words(n, [&](std::size_t count) {
      std::uint64_t bits = 0;
      for (std::size_t j = 0; j < count; ++j) {
        bits |= std::uint64_t{src.get(next++)} << j;
      }
      return bits;
    });
    EXPECT_EQ(next, n);
    EXPECT_EQ(rebuilt, src);
  }
}

TEST_P(BitVecKernels, SpliceMatchesPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 29 + 11);
  for (int trial = 0; trial < 16; ++trial) {
    const BitVec v = random_bits(n, rng);
    const auto lo = static_cast<std::size_t>(rng.below(n + 1));
    const auto len = static_cast<std::size_t>(rng.below(n - lo + 1));

    const BitVec src = random_bits(len, rng);
    BitVec spliced = v;
    spliced.splice(lo, src);
    BitVec want_splice = v;
    for (std::size_t i = 0; i < len; ++i) want_splice.set(lo + i, src.get(i));
    EXPECT_EQ(spliced, want_splice);
    EXPECT_TRUE(zero_tail(spliced));
  }
}

TEST_P(BitVecKernels, CopyRangeFillStoreMatchPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 5);
  for (int trial = 0; trial < 24; ++trial) {
    const BitVec v = random_bits(n, rng);
    const auto pos = static_cast<std::size_t>(rng.below(n + 1));
    const auto len = static_cast<std::size_t>(rng.below(n - pos + 1));

    // A range of another vector, at an unrelated offset there.
    const BitVec src = random_bits(len + rng.below(130), rng);
    const auto src_pos =
        static_cast<std::size_t>(rng.below(src.size() - len + 1));
    BitVec copied = v;
    copied.copy_range(pos, src, src_pos, len);
    BitVec want = v;
    for (std::size_t i = 0; i < len; ++i) {
      want.set(pos + i, src.get(src_pos + i));
    }
    EXPECT_EQ(copied, want);
    EXPECT_TRUE(zero_tail(copied));

    for (const bool value : {false, true}) {
      BitVec filled = v;
      filled.fill(pos, pos + len, value);
      BitVec want_fill = v;
      for (std::size_t i = pos; i < pos + len; ++i) want_fill.set(i, value);
      EXPECT_EQ(filled, want_fill);
      EXPECT_TRUE(zero_tail(filled));
    }

    const auto count = std::min<std::size_t>(len, 64);
    const std::uint64_t bits = rng.next();  // high bits beyond count ignored
    BitVec stored = v;
    stored.store(pos, bits, count);
    BitVec want_store = v;
    for (std::size_t i = 0; i < count; ++i) {
      want_store.set(pos + i, (bits >> i) & 1u);
    }
    EXPECT_EQ(stored, want_store);
    EXPECT_TRUE(zero_tail(stored));
  }
}

TEST(BitVec, RangePreconditions) {
  BitVec v(70);
  const BitVec src(10);
  const std::size_t huge = ~std::size_t{0};
  EXPECT_THROW(v.copy_range(61, src, 0, 10), contract_violation);
  EXPECT_THROW(v.copy_range(0, src, 1, 10), contract_violation);
  EXPECT_THROW(v.copy_range(huge, src, 0, 2), contract_violation);
  EXPECT_THROW(v.copy_range(0, v, 1, 2), contract_violation);  // aliasing
  EXPECT_THROW(v.fill(5, 71, true), contract_violation);
  EXPECT_THROW(v.fill(6, 5, true), contract_violation);
  EXPECT_THROW(v.store(7, 0, 64), contract_violation);
  EXPECT_THROW(v.store(0, 0, 65), contract_violation);
  EXPECT_EQ(v, BitVec(70));
  v.copy_range(70, src, 10, 0);  // empty ranges at the ends are fine
  v.fill(70, 70, true);
  v.store(70, ~std::uint64_t{0}, 0);
  EXPECT_EQ(v, BitVec(70));
}

TEST_P(BitVecKernels, PopcountMatchesPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 1);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const BitVec a = random_bits(n, rng);
    const BitVec b = shaped_mask(n, rng, trial);
    std::size_t ones = 0, mask_ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ones += a.get(i) ? 1 : 0;
      mask_ones += b.get(i) ? 1 : 0;
    }
    EXPECT_EQ(a.popcount(), ones);
    EXPECT_EQ(b.popcount(), mask_ones);
  }
  EXPECT_EQ(BitVec(n, true).popcount(), n);
}

TEST_P(BitVecKernels, SparseMaskMatchesDense) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 3);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const BitVec mask =
        trial < 4 ? shaped_mask(n, rng, trial) : random_bits(n, rng);
    const SparseMask sparse(mask);
    EXPECT_EQ(sparse.size(), n);
    EXPECT_EQ(dense_of(sparse), mask);
    sparse.for_each_word([&](std::size_t w, std::uint64_t bits) {
      EXPECT_NE(bits, 0u);
      EXPECT_EQ(bits, mask.word(w));
    });

    const BitVec other = random_bits(n, rng);
    EXPECT_EQ(SparseMask(other) == sparse, other == mask);
  }
}

TEST_P(BitVecKernels, SparseMaskAppendIntersectMatchPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 37 + 9);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const BitVec base =
        trial < 4 ? shaped_mask(n, rng, trial) : random_bits(n, rng);

    // Append a random increasing set: equal to the dense mask of that set.
    BitVec chosen(n);
    SparseMask appended(n);
    const std::uint64_t one_in = 1 + trial % 4;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.below(one_in) != 0) continue;
      chosen.set(i, true);
      appended.append(i);
    }
    EXPECT_EQ(appended, SparseMask(chosen));

    BitVec want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want.set(i, chosen.get(i) && base.get(i));
    }
    const SparseMask both = appended.intersect(base);
    EXPECT_EQ(both, SparseMask(want));
    EXPECT_EQ(dense_of(both), want);
    EXPECT_EQ(both.memory_bytes(), SparseMask(want).memory_bytes());

    std::vector<std::size_t> visited, want_visited;
    both.for_each_set([&](std::size_t i) { visited.push_back(i); });
    want.for_each_set([&](std::size_t i) { want_visited.push_back(i); });
    EXPECT_EQ(visited, want_visited);

  }
}

/// The maximal runs of bits set in `mask` and clear in `known`, found one
/// bit at a time.
std::vector<Interval> runs_outside_reference(const BitVec& mask,
                                             const BitVec& known) {
  std::vector<Interval> runs;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask.get(i) || known.get(i)) continue;
    if (!runs.empty() && runs.back().hi == i) {
      ++runs.back().hi;
    } else {
      runs.push_back(Interval{i, i + 1});
    }
  }
  return runs;
}

/// A mask of a few random runs, long enough to cross word boundaries.
BitVec run_mask(std::size_t n, Rng& rng) {
  BitVec mask(n);
  if (n == 0) return mask;
  const std::size_t runs = rng.below(10);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t lo = rng.below(n);
    mask.fill(lo, std::min(n, lo + 1 + rng.below(200)), true);
  }
  return mask;
}

TEST_P(BitVecKernels, SparseMaskRunsOutsideMatchPerBitReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 41 + 7);
  for (std::size_t trial = 0; trial < 12; ++trial) {
    const BitVec mask = trial < 4   ? shaped_mask(n, rng, trial)
                        : trial < 8 ? run_mask(n, rng)
                                    : random_bits(n, rng);
    // Known bits: none, all, the mask itself, then random shapes.
    const BitVec known = trial % 4 == 0   ? BitVec(n)
                         : trial % 4 == 1 ? BitVec(n, true)
                         : trial % 4 == 2 ? (trial < 8 ? run_mask(n, rng)
                                                       : mask)
                                          : random_bits(n, rng);
    EXPECT_EQ(SparseMask(mask).runs_outside(known),
              runs_outside_reference(mask, known))
        << "n=" << n << " trial=" << trial;
  }
}

TEST_P(BitVecKernels, ClearRunsMatchRunsOutsideTheFullMask) {
  // crash_multi's direct completion asked for the unknown runs as the
  // dense ~known copied into a SparseMask; clear_runs must give the same.
  const std::size_t n = GetParam();
  Rng rng(n * 43 + 5);
  for (std::size_t trial = 0; trial < 12; ++trial) {
    const BitVec known = trial == 0   ? BitVec(n)
                         : trial == 1 ? BitVec(n, true)
                         : trial < 7  ? run_mask(n, rng)
                                      : random_bits(n, rng);
    BitVec rest(n, true);
    rest.andnot_with(known);
    EXPECT_EQ(known.clear_runs(), SparseMask(rest).runs_outside(known))
        << "n=" << n << " trial=" << trial;
    EXPECT_EQ(known.clear_runs(),
              runs_outside_reference(BitVec(n, true), known))
        << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecKernels,
                         ::testing::Values(0, 1, 63, 64, 65, 127, 16384));

TEST(BitVec, WordAccessPreconditions) {
  BitVec v(70);
  EXPECT_THROW((void)v.word(2), contract_violation);
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  using Words = std::vector<BitVec::MaskedWord>;
  BitVec known(70);
  EXPECT_THROW((void)v.assign_masked(Words{{2, 1, 1}}, known),
               contract_violation);
  // Word 1 holds bits 64..69: bit 70 and up lie past size().
  EXPECT_THROW(
      (void)v.assign_masked(Words{{1, std::uint64_t{1} << 6, kOnes}}, known),
      contract_violation);
  BitVec short_known(69);
  EXPECT_THROW((void)v.assign_masked(Words{{0, 1, 1}}, short_known),
               contract_violation);
  EXPECT_EQ(v.assign_masked(Words{{0, 1, 0}, {1, 0x3f, kOnes}}, known), 7u);
  EXPECT_EQ(v.popcount(), 6u);
  EXPECT_EQ(known.popcount(), 7u);
  // Known bits written again learn nothing; a new value still overwrites.
  EXPECT_EQ(v.assign_masked(Words{{1, 0x3f, kOnes}}, known), 0u);
  EXPECT_EQ(v.assign_masked(Words{{0, 3, 2}}, known),
            1u);  // bit 1 new, bit 0 stays 0
  EXPECT_EQ(v.assign_masked(Words{{1, 0x30, 0x10}}, known), 0u);
  EXPECT_FALSE(v.get(69));  // rewritten from 1 to 0
  EXPECT_EQ(v.popcount(), 6u);  // bits 1 and 64..68
  BitVec full(128);
  BitVec full_known(128);
  EXPECT_EQ(full.assign_masked(Words{{1, kOnes, kOnes}}, full_known), 64u);
  EXPECT_EQ(full.popcount(), 64u);
}

TEST(SparseMask, AppendPreconditions) {
  SparseMask m(100);
  m.append(3);
  EXPECT_THROW(m.append(3), contract_violation);
  EXPECT_THROW(m.append(2), contract_violation);
  m.append(64);
  EXPECT_THROW(m.append(63), contract_violation);
  EXPECT_THROW(m.append(100), contract_violation);
  m.append(99);
  std::vector<std::size_t> set;
  m.for_each_set([&](std::size_t i) { set.push_back(i); });
  EXPECT_EQ(set, (std::vector<std::size_t>{3, 64, 99}));
  EXPECT_THROW((void)m.intersect(BitVec(99)), contract_violation);
}

TEST(SparseMask, KeepsOnlyNonzeroWords) {
  BitVec block(1 << 14);
  for (std::size_t i = 4000; i < 4170; ++i) block.set(i, true);
  const SparseMask sparse(block);
  // 170 bits from 4000 on touch words 62..65: four words, not n/64 = 256.
  EXPECT_EQ(sparse.memory_bytes(), 4 * (sizeof(std::size_t) + 8));
  EXPECT_EQ(SparseMask(BitVec(1 << 14)).memory_bytes(), 0u);
  EXPECT_NE(SparseMask(BitVec(64)), SparseMask(BitVec(65)));
}

TEST(SparseMask, RunsOutsideEdges) {
  using Runs = std::vector<Interval>;
  const auto runs = [](std::size_t n, std::size_t lo, std::size_t hi,
                       const BitVec& known) {
    BitVec mask(n);
    mask.fill(lo, hi, true);
    return SparseMask(mask).runs_outside(known);
  };
  // A full word at word 0, alone and joined to its neighbour.
  EXPECT_EQ(runs(128, 0, 64, BitVec(128)), (Runs{{0, 64}}));
  EXPECT_EQ(runs(128, 0, 65, BitVec(128)), (Runs{{0, 65}}));
  // Bit 63 alone, and a run across two word boundaries.
  EXPECT_EQ(runs(128, 63, 64, BitVec(128)), (Runs{{63, 64}}));
  EXPECT_EQ(runs(200, 60, 131, BitVec(200)), (Runs{{60, 131}}));
  // n % 64 != 0: a run up to the last bit.
  EXPECT_EQ(runs(100, 90, 100, BitVec(100)), (Runs{{90, 100}}));
  EXPECT_EQ(runs(100, 0, 100, BitVec(100)), (Runs{{0, 100}}));
  // An empty mask, everything already known, and a known bit that splits
  // a run at a word boundary.
  EXPECT_EQ(SparseMask(100).runs_outside(BitVec(100)), Runs{});
  EXPECT_EQ(runs(100, 0, 100, BitVec(100, true)), Runs{});
  BitVec known(192);
  known.set(64, true);
  EXPECT_EQ(runs(192, 0, 192, known), (Runs{{0, 64}, {65, 192}}));
  EXPECT_THROW((void)SparseMask(100).runs_outside(BitVec(99)),
               contract_violation);
}

TEST(SparseMask, RangeMatchesPerBitAppend) {
  for (const std::size_t n : {0, 1, 63, 64, 65, 128, 130}) {
    for (std::size_t lo = 0; lo <= n; ++lo) {
      for (std::size_t hi = lo; hi <= n; ++hi) {
        SparseMask want(n);
        for (std::size_t b = lo; b < hi; ++b) want.append(b);
        const SparseMask got = SparseMask::range(n, lo, hi);
        ASSERT_EQ(got, want) << "n=" << n << " [" << lo << ", " << hi << ")";
        ASSERT_EQ(got.size(), n);
      }
    }
  }
  EXPECT_THROW((void)SparseMask::range(10, 5, 11), contract_violation);
  EXPECT_THROW((void)SparseMask::range(10, 6, 5), contract_violation);
}

}  // namespace
}  // namespace asyncdr
