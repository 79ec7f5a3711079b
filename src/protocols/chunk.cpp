#include "protocols/chunk.hpp"

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
    for (std::size_t i = iv.lo; i < iv.hi; ++i) {
      ASYNCDR_EXPECTS(i < out.size());
      out.set(i, values.get(j++));
    }
  }
  known.unite(indices);
}

MaskChunk::MaskChunk(SparseMask m, BitVec vals)
    : mask(std::move(m)), values(std::move(vals)) {
  ASYNCDR_EXPECTS(mask.popcount() == values.size());
}

void MaskChunk::apply_to(BitVec& out, BitVec& known_mask) const {
  ASYNCDR_EXPECTS(mask.size() == out.size());
  ASYNCDR_EXPECTS(mask.size() == known_mask.size());
  out.scatter(mask, values);
  known_mask.or_with(mask);
}

MaskChunk MaskChunk::extract(const BitVec& src, SparseMask mask) {
  ASYNCDR_EXPECTS(src.size() == mask.size());
  BitVec values = src.gather(mask);
  return MaskChunk(std::move(mask), std::move(values));
}

BitChunk BitChunk::extract(const BitVec& src, const IntervalSet& idx) {
  BitVec vals(idx.count());
  std::size_t j = 0;
  for (const Interval& iv : idx.intervals()) {
    for (std::size_t i = iv.lo; i < iv.hi; ++i) vals.set(j++, src.get(i));
  }
  return BitChunk(idx, std::move(vals));
}

std::uint64_t BitChunk::hash() const {
  return sim::payload_hash_mix(indices.hash(), values.hash());
}

std::uint64_t MaskChunk::hash() const {
  return sim::payload_hash_mix(mask.hash(), values.hash());
}

}  // namespace asyncdr::proto
