#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

// popcount compiles twice, with and without the POPCNT instruction, and
// the loader picks one per CPU; without it std::popcount is a libgcc call
// per word. The pick is an ifunc resolver, which runs before the
// ThreadSanitizer runtime is up and crashes in a TSan build, so those
// builds compile the plain loop.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ASYNCDR_TSAN_BUILD
#endif
#endif
#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(ASYNCDR_TSAN_BUILD)
#define ASYNCDR_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#else
#define ASYNCDR_POPCNT_CLONES
#endif

namespace asyncdr {
namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

ASYNCDR_POPCNT_CLONES
std::size_t popcount_words(const std::uint64_t* a, std::size_t words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w]));
  }
  return total;
}

}  // namespace

BitVec::BitVec(std::size_t n, bool value)
    : words_(word_count(n), value ? ~std::uint64_t{0} : 0), size_(n) {
  trim_tail();
}

void BitVec::push_back(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, value);
}

void BitVec::copy_range(std::size_t pos, const BitVec& src,
                        std::size_t src_pos, std::size_t len) {
  // Overflow-safe forms of pos + len <= size() and src_pos + len <=
  // src.size(); a forward word copy within one vector could read bits it
  // already overwrote.
  ASYNCDR_EXPECTS(len <= size_ && pos <= size_ - len);
  ASYNCDR_EXPECTS(len <= src.size_ && src_pos <= src.size_ - len);
  ASYNCDR_EXPECTS(&src != this);
  for (std::size_t at = 0; at < len; at += kWordBits) {
    const std::size_t count = std::min(kWordBits, len - at);
    store_bits(pos + at, src.load_bits(src_pos + at) & low_bits(count), count);
  }
}

void BitVec::fill(std::size_t lo, std::size_t hi, bool value) {
  ASYNCDR_EXPECTS(lo <= hi && hi <= size_);
  for (std::size_t at = lo; at < hi; at += kWordBits) {
    const std::size_t count = std::min(kWordBits, hi - at);
    store_bits(at, value ? low_bits(count) : 0, count);
  }
}

void BitVec::store(std::size_t pos, std::uint64_t bits, std::size_t count) {
  ASYNCDR_EXPECTS(count <= kWordBits && count <= size_ &&
                  pos <= size_ - count);
  if (count > 0) store_bits(pos, bits & low_bits(count), count);
}

std::size_t BitVec::popcount() const {
  return popcount_words(words_.data(), words_.size());
}

BitVec::Assigned BitVec::assign_masked(std::span<const MaskedWord> words,
                                       BitVec& known) {
  ASYNCDR_EXPECTS(known.size_ == size_);
  // Words below `whole` lie inside size(); only a later one needs checking.
  const std::size_t whole = size_ / kWordBits;
  Assigned out;
  std::uint64_t changed = 0;
  for (const MaskedWord& w : words) {
    if (w.index >= whole) {
      ASYNCDR_EXPECTS(w.index < words_.size() &&
                      (w.mask >> (size_ % kWordBits)) == 0);
    }
    // Most words a peer applies are already known (repeated answers), and
    // without a hardware popcount std::popcount is a library call: skip it
    // for them.
    const std::uint64_t held = known.words_[w.index];
    const std::uint64_t fresh = w.mask & ~held;
    if (fresh != 0) {
      out.learned += static_cast<std::size_t>(std::popcount(fresh));
    }
    changed |= (words_[w.index] ^ w.values) & w.mask & held;
    words_[w.index] = (words_[w.index] & ~w.mask) | (w.values & w.mask);
    known.words_[w.index] = held | w.mask;
  }
  out.rewrote = changed != 0;
  return out;
}

void BitVec::andnot_with(const BitVec& other) {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
}

bool BitVec::is_subset_of(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

int BitVec::count_trailing(std::uint64_t word) {
  return std::countr_zero(word);
}

std::optional<std::size_t> BitVec::first_difference(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t diff = words_[w] ^ other.words_[w];
    if (diff != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(diff));
    }
  }
  return std::nullopt;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

std::uint64_t BitVec::hash() const {
  std::uint64_t h = kFnvOffset ^ size_;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= kFnvPrime;
  }
  return h;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::uint64_t BitVec::low_bits(std::size_t count) {
  return count == kWordBits ? kAllOnes : (std::uint64_t{1} << count) - 1;
}

void BitVec::store_bits(std::size_t pos, std::uint64_t bits,
                        std::size_t count) {
  const std::size_t w = pos / kWordBits;
  const std::size_t shift = pos % kWordBits;
  const std::uint64_t field = low_bits(count);
  words_[w] = (words_[w] & ~(field << shift)) | (bits << shift);
  if (shift + count > kWordBits) {
    const std::size_t spill = kWordBits - shift;
    words_[w + 1] = (words_[w + 1] & ~(field >> spill)) | (bits >> spill);
  }
}

void BitVec::trim_tail() {
  if (size_ % kWordBits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (size_ % kWordBits)) - 1;
  }
}

// ---- SparseMask ----

SparseMask::SparseMask(const BitVec& dense)
    : SparseMask(build(dense.size_, [&](auto&& push) {
        for (std::size_t w = 0; w < dense.words_.size(); ++w) {
          push(w, dense.words_[w]);
        }
      })) {}

SparseMask SparseMask::range(std::size_t n, std::size_t lo, std::size_t hi) {
  ASYNCDR_EXPECTS(lo <= hi && hi <= n);
  return build(n, [&](auto&& push) {
    if (lo == hi) return;
    const std::size_t first = lo / BitVec::kWordBits;
    const std::size_t last = (hi - 1) / BitVec::kWordBits;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t bits = kAllOnes;
      if (w == first) bits &= kAllOnes << (lo % BitVec::kWordBits);
      if (w == last) bits &= BitVec::low_bits(hi - w * BitVec::kWordBits);
      push(w, bits);
    }
  });
}

void SparseMask::append(std::size_t i) {
  const std::size_t w = i / BitVec::kWordBits;
  const std::uint64_t bit = std::uint64_t{1} << (i % BitVec::kWordBits);
  ASYNCDR_EXPECTS(i < size_ && (words_.empty() || words_.back().index < w ||
                                (words_.back().index == w &&
                                 words_.back().bits < bit)));
  if (!words_.empty() && words_.back().index == w) {
    words_.back().bits |= bit;
  } else {
    words_.push_back(Word{w, bit});
  }
}

SparseMask SparseMask::intersect(const BitVec& other) const {
  ASYNCDR_EXPECTS(size_ == other.size_);
  return build(size_, [&](auto&& push) {
    for (const Word& m : words_) push(m.index, m.bits & other.words_[m.index]);
  });
}

void BitVec::append_runs(std::vector<Interval>& runs, std::size_t base,
                         std::uint64_t bits) {
  while (bits != 0) {
    const auto lo = static_cast<std::size_t>(std::countr_zero(bits));
    const auto len = static_cast<std::size_t>(std::countr_one(bits >> lo));
    if (!runs.empty() && runs.back().hi == base + lo) {
      runs.back().hi += len;  // continues the previous word's last run
    } else {
      runs.push_back(Interval{base + lo, base + lo + len});
    }
    // Clears the run; one that reaches bit 63 empties the word.
    bits &= ~low_bits(lo + len);
  }
}

std::vector<Interval> BitVec::clear_runs() const {
  std::vector<Interval> runs;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::size_t base = w * kWordBits;
    append_runs(runs, base,
                ~words_[w] & low_bits(std::min(kWordBits, size_ - base)));
  }
  return runs;
}

std::vector<Interval> SparseMask::runs_outside(const BitVec& known) const {
  ASYNCDR_EXPECTS(size_ == known.size_);
  std::vector<Interval> runs;
  for (const Word& m : words_) {
    BitVec::append_runs(runs, m.index * BitVec::kWordBits,
                        m.bits & ~known.words_[m.index]);
  }
  return runs;
}

}  // namespace asyncdr
