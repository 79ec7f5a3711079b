// A BitChunk is a self-describing set of (index, value) pairs — the unit of
// bit-value transfer in every Download protocol here. Indices travel as
// interval sets, so contiguous assignments stay compact.
#pragma once

#include "common/bitvec.hpp"
#include "common/interval_set.hpp"

namespace asyncdr::proto {

/// Bit values for an explicit index set. values.get(j) is the value of the
/// j-th smallest index in `indices`.
struct BitChunk {
  IntervalSet indices;
  BitVec values;

  BitChunk() = default;
  BitChunk(IntervalSet idx, BitVec vals);

  [[nodiscard]] std::size_t count() const { return indices.count(); }
  [[nodiscard]] bool empty() const { return indices.empty(); }

  /// Wire size: one bit per value plus two 64-bit bounds per interval.
  [[nodiscard]] std::size_t size_bits() const;

  /// True if this chunk provides a value for every index in `wanted`.
  [[nodiscard]] bool covers(const IntervalSet& wanted) const;

  /// Writes the chunk's values into `out` and adds the indices to `known`.
  void apply_to(BitVec& out, IntervalSet& known) const;

  /// Builds the chunk carrying src's values at `idx`.
  static BitChunk extract(const BitVec& src, const IntervalSet& idx);

  bool operator==(const BitChunk&) const = default;
  /// Content hash feeding Payload::content_hash (payload interning).
  [[nodiscard]] std::uint64_t hash() const;
};

/// Bit values for a mask-described index set, used by the multi-crash
/// protocol, whose index sets are residue classes and fragment too much for
/// intervals. The mask is never charged on the wire: in Algorithm 2 every
/// index set is deducible from the protocol's shared rules plus the short
/// unheard-peer history the requests already carry, so only the data bits
/// (plus a small header) count — exactly the paper's accounting. In memory
/// the mask is a SparseMask: a chunk holds one peer's share of the unknown
/// bits, a sliver of n, and thousands of chunks can be in flight at once.
struct MaskChunk {
  SparseMask mask;  ///< length-n mask: 1 = value present
  BitVec values;    ///< mask.popcount() values, in increasing index order

  MaskChunk() = default;
  MaskChunk(SparseMask m, BitVec vals);

  [[nodiscard]] std::size_t count() const { return values.size(); }
  [[nodiscard]] bool empty() const { return values.empty(); }

  /// Wire size: data bits + constant header (see struct comment).
  [[nodiscard]] std::size_t size_bits() const { return values.size() + 64; }

  /// Writes values into `out`, sets the corresponding bits of `known_mask`.
  void apply_to(BitVec& out, BitVec& known_mask) const;

  /// Builds the chunk of src's values at the mask's set positions.
  static MaskChunk extract(const BitVec& src, SparseMask mask);

  bool operator==(const MaskChunk&) const = default;
  /// Content hash feeding Payload::content_hash (payload interning).
  [[nodiscard]] std::uint64_t hash() const;
};

}  // namespace asyncdr::proto
