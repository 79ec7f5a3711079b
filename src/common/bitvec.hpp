// Packed bit vector used for the source array X, peer output arrays, and
// segment strings exchanged between peers. Sizes in this codebase are counted
// in *bits* throughout, matching the paper's query/message accounting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/interval_set.hpp"

namespace asyncdr {

class SparseMask;

/// A dynamically sized, densely packed vector of bits.
///
/// Invariant: bits at positions >= size() inside the last storage word are
/// always zero, so whole-word comparison and hashing are well defined.
class BitVec {
 public:
  BitVec() = default;

  /// Constructs `n` bits, all set to `value`.
  explicit BitVec(std::size_t n, bool value = false);

  /// Builds an n-bit vector whose bits are drawn from `next_bit()` calls.
  template <typename F>
  static BitVec generate(std::size_t n, F&& next_bit) {
    BitVec v(n);
    for (std::size_t i = 0; i < n; ++i) v.set(i, static_cast<bool>(next_bit()));
    return v;
  }

  /// Builds an n-bit vector a word at a time: next_word(count) returns the
  /// next `count` (1..64) bits, lowest index in bit 0, higher bits zero.
  template <typename F>
  static BitVec generate_words(std::size_t n, F&& next_word) {
    BitVec v(n);
    for (std::size_t w = 0; w < v.words_.size(); ++w) {
      v.words_[w] = next_word(std::min(kWordBits, n - w * kWordBits));
    }
    v.trim_tail();
    return v;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const {
    ASYNCDR_EXPECTS(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i, bool value) {
    ASYNCDR_EXPECTS(i < size_);
    const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= bit;
    } else {
      words_[i / kWordBits] &= ~bit;
    }
  }
  void flip(std::size_t i) {
    ASYNCDR_EXPECTS(i < size_);
    words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
  }

  /// Appends one bit at the end.
  void push_back(bool value);

  /// Overwrites bits [pos, pos+src.size()) with the contents of `src`.
  void splice(std::size_t pos, const BitVec& src) {
    copy_range(pos, src, 0, src.size());
  }

  /// Overwrites bits [pos, pos+len) with src's bits [src_pos, src_pos+len),
  /// a word at a time. `src` must be another vector.
  void copy_range(std::size_t pos, const BitVec& src, std::size_t src_pos,
                  std::size_t len);

  /// Sets bits [lo, hi) to `value`, a word at a time.
  void fill(std::size_t lo, std::size_t hi, bool value);

  /// Overwrites the `count` (0..64) bits starting at `pos` with the low
  /// `count` bits of `bits`; higher bits of `bits` are ignored.
  void store(std::size_t pos, std::uint64_t bits, std::size_t count);

  /// The storage words, word w holding bits [64w, 64w + 64), for read-only
  /// kernels that check sizes once and then index words directly
  /// (proto::MaskChunk).
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  /// Storage word w: bits [64w, 64w + 64), bit i - 64w holding bit i.
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    ASYNCDR_EXPECTS(w < words_.size());
    return words_[w];
  }
  /// The bits of storage word `index` that `mask` selects, with values
  /// `values` (bits outside `mask` ignored).
  struct MaskedWord {
    std::size_t index;
    std::uint64_t mask;
    std::uint64_t values;
    bool operator==(const MaskedWord&) const = default;
  };
  /// What one assign_masked pass did.
  struct Assigned {
    std::size_t learned = 0;  ///< selected bits `known` lacked before
    bool rewrote = false;     ///< some bit `known` held changed its value
    bool operator==(const Assigned&) const = default;
  };
  /// For each word: overwrites the bits it selects with its values here and
  /// sets them in `known` (same size). No mask may select a bit at or past
  /// size().
  Assigned assign_masked(std::span<const MaskedWord> words, BitVec& known);

  /// The 64 bits starting at `pos` < size(); bits past size() read as zero.
  [[nodiscard]] std::uint64_t load_bits(std::size_t pos) const {
    const std::size_t w = pos / kWordBits;
    const std::size_t shift = pos % kWordBits;
    std::uint64_t bits = words_[w] >> shift;
    if (shift != 0 && w + 1 < words_.size()) {
      bits |= words_[w + 1] << (kWordBits - shift);
    }
    return bits;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const;

  // ---- Mask algebra (operands must have equal size). ----

  /// this &= ~other.
  void andnot_with(const BitVec& other);
  /// True if every set bit of *this is also set in other.
  [[nodiscard]] bool is_subset_of(const BitVec& other) const;

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename F>
  void for_each_set(F&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(count_trailing(word));
        fn(w * kWordBits + bit);
        word &= word - 1;
      }
    }
  }

  /// The maximal runs of clear bits, ascending, found a word at a time: a
  /// run may span words. One pass and one allocation (the runs).
  [[nodiscard]] std::vector<Interval> clear_runs() const;

  /// First index where *this and other differ; nullopt if equal.
  /// Both vectors must have the same size.
  [[nodiscard]] std::optional<std::size_t> first_difference(const BitVec& other) const;

  /// '0'/'1' rendering (test/debug convenience).
  [[nodiscard]] std::string to_string() const;

  /// 64-bit FNV-style hash over content (used for map keys of segment
  /// strings; not cryptographic).
  [[nodiscard]] std::uint64_t hash() const;

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Raw heap bytes behind this vector (word storage capacity). Memory
  /// accounting applies its allocation model on top; see obs/mem.hpp.
  [[nodiscard]] std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::size_t kWordBits = 64;
  static std::size_t word_count(std::size_t n) {
    return (n + kWordBits - 1) / kWordBits;
  }
  static int count_trailing(std::uint64_t word);
  /// The `count` (0..64) lowest bits set.
  static std::uint64_t low_bits(std::size_t count);
  void trim_tail();
  /// Appends the runs of set bits of `bits`, word-relative to `base`, to
  /// `runs` (ascending, ending at or before `base`), extending the last
  /// run if it ends exactly at the first of them.
  static void append_runs(std::vector<Interval>& runs, std::size_t base,
                          std::uint64_t bits);
  /// Overwrites the `count` (1..64) bits starting at `pos` with the low
  /// `count` bits of `bits`, whose higher bits must be zero.
  void store_bits(std::size_t pos, std::uint64_t bits, std::size_t count);

  friend class SparseMask;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// A length-n bit mask that keeps only its nonzero 64-bit words. It has the
/// content and equality of the BitVec it was built from, in heap
/// proportional to the words holding set bits instead of to n: the form for
/// sparse masks that are kept alive in bulk, such as crash_multi's per-phase
/// owner sets (protocols/crash_multi.hpp). Every operation costs
/// O(nonzero words), except the dense constructor.
class SparseMask {
 public:
  SparseMask() = default;
  /// An n-bit mask with no bit set.
  explicit SparseMask(std::size_t n) : size_(n) {}
  explicit SparseMask(const BitVec& dense);
  /// The n-bit mask of bits [lo, hi), built a word at a time.
  static SparseMask range(std::size_t n, std::size_t lo, std::size_t hi);

  /// Sets bit i, which must come after every bit set so far.
  void append(std::size_t i);

  /// The set bits of *this that are also set in `other` (same size), built
  /// a word at a time.
  [[nodiscard]] SparseMask intersect(const BitVec& other) const;

  /// The maximal runs of bits set here and clear in `known` (same size),
  /// ascending, found a word at a time: a run may span words.
  [[nodiscard]] std::vector<Interval> runs_outside(const BitVec& known) const;

  /// Length n of the mask (not its heap size).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Calls fn(w, bits) for every nonzero storage word, in increasing w:
  /// bits holds the mask's bits [64w, 64w + 64), as in BitVec::word(w).
  template <typename F>
  void for_each_word(F&& fn) const {
    for (const Word& m : words_) fn(m.index, m.bits);
  }

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename F>
  void for_each_set(F&& fn) const {
    for (const Word& m : words_) {
      for (std::uint64_t bits = m.bits; bits != 0; bits &= bits - 1) {
        fn(m.index * BitVec::kWordBits +
           static_cast<std::size_t>(BitVec::count_trailing(bits)));
      }
    }
  }

  bool operator==(const SparseMask& other) const = default;

  /// Raw heap bytes behind this mask.
  [[nodiscard]] std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(Word);
  }

 private:
  struct Word {
    std::size_t index;   ///< position in the dense word array
    std::uint64_t bits;  ///< nonzero
    bool operator==(const Word& other) const = default;
  };

  /// Builds the mask from emit(push), which calls push(index, bits) for
  /// increasing word indices (zero bits allowed, and dropped): once to
  /// count the nonzero words, once to store them, so the word array is
  /// allocated once at its exact size.
  template <typename Emit>
  static SparseMask build(std::size_t size, Emit&& emit) {
    SparseMask out;
    out.size_ = size;
    std::size_t nonzero = 0;
    emit([&](std::size_t, std::uint64_t bits) {
      nonzero += bits != 0 ? 1 : 0;
    });
    out.words_.reserve(nonzero);
    emit([&](std::size_t index, std::uint64_t bits) {
      if (bits != 0) out.words_.push_back(Word{index, bits});
    });
    return out;
  }

  std::vector<Word> words_;  ///< increasing index
  std::size_t size_ = 0;
};

/// Hash functor so BitVec can key unordered containers.
struct BitVecHash {
  std::size_t operator()(const BitVec& v) const {
    return static_cast<std::size_t>(v.hash());
  }
};

}  // namespace asyncdr
