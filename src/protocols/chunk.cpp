#include "protocols/chunk.hpp"

#include <bit>
#include <span>

#include "common/check.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

BitChunk::BitChunk(IntervalSet idx, BitVec vals)
    : indices(std::move(idx)), values(std::move(vals)) {
  ASYNCDR_EXPECTS(indices.count() == values.size());
}

std::size_t BitChunk::size_bits() const {
  return values.size() + 128 * indices.intervals().size();
}

bool BitChunk::covers(const IntervalSet& wanted) const {
  IntervalSet missing = wanted;
  missing.subtract(indices);
  return missing.empty();
}

void BitChunk::apply_to(BitVec& out, IntervalSet& known) const {
  std::size_t j = 0;
  for (const Interval& iv : indices.intervals()) {
    out.copy_range(iv.lo, values, j, iv.length());  // checks iv.hi <= n
    j += iv.length();
  }
  known.unite(indices);
}

MaskChunk::MaskChunk(std::size_t size, std::vector<Word> words)
    : words_(std::move(words)), size_(size) {
  hash_ = sim::payload_hash_mix(0x0c, size_);
  for (const Word& w : words_) {
    count_ += static_cast<std::size_t>(std::popcount(w.mask));
    hash_ = sim::payload_hash_mix(hash_, w.index);
    hash_ = sim::payload_hash_mix(hash_, w.mask);
    hash_ = sim::payload_hash_mix(hash_, w.values);
  }
}

MaskChunk MaskChunk::extract(const BitVec& src, const SparseMask& mask) {
  ASYNCDR_EXPECTS(src.size() == mask.size());
  std::size_t nonzero = 0;
  mask.for_each_word([&](std::size_t, std::uint64_t) { ++nonzero; });
  std::vector<Word> words;
  words.reserve(nonzero);
  mask.for_each_word([&](std::size_t w, std::uint64_t bits) {
    words.push_back(Word{w, bits, src.word(w) & bits});
  });
  return MaskChunk(mask.size(), std::move(words));
}

std::size_t MaskChunk::apply_to(BitVec& out, BitVec& known_mask) const {
  ASYNCDR_EXPECTS(size_ == out.size());
  return out.assign_masked(words_, known_mask);
}

bool MaskChunk::is_subset_of(const BitVec& known_mask) const {
  ASYNCDR_EXPECTS(size_ == known_mask.size());
  for (const Word& w : words_) {
    if ((w.mask & ~known_mask.word(w.index)) != 0) return false;
  }
  return true;
}

// check, a per-message kernel, checks sizes once per call: every word index
// of a chunk lies below ceil(size_ / 64) by construction, so each chunk word
// then costs one direct word operation per array.
MaskChunk::Checks MaskChunk::check(const BitVec& src,
                                   const BitVec& known_mask) const {
  ASYNCDR_EXPECTS(size_ == src.size());
  ASYNCDR_EXPECTS(size_ == known_mask.size());
  const std::span<const std::uint64_t> values = src.words();
  const std::span<const std::uint64_t> known = known_mask.words();
  std::uint64_t differ = 0;
  std::uint64_t lacking = 0;
  for (const Word& w : words_) {
    differ |= (values[w.index] & w.mask) ^ w.values;
    lacking |= w.mask & ~known[w.index];
  }
  return Checks{differ == 0, lacking == 0};
}

BitChunk BitChunk::extract(const BitVec& src, const IntervalSet& idx) {
  BitVec vals(idx.count());
  std::size_t j = 0;
  for (const Interval& iv : idx.intervals()) {
    vals.copy_range(j, src, iv.lo, iv.length());
    j += iv.length();
  }
  return BitChunk(idx, std::move(vals));
}

std::uint64_t BitChunk::hash() const {
  return sim::payload_hash_mix(indices.hash(), values.hash());
}

}  // namespace asyncdr::proto
