// A BitChunk is a self-describing set of (index, value) pairs — the unit of
// bit-value transfer in every Download protocol here. Indices travel as
// interval sets, so contiguous assignments stay compact.
#pragma once

#include <cstdint>
#include <vector>

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

  /// Writes the chunk's values into `out` and adds the indices to `known`,
  /// an interval at a time. Every interval must lie within `out`.
  void apply_to(BitVec& out, IntervalSet& known) const;

  /// Builds the chunk carrying src's values at `idx`, an interval at a time.
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
/// (plus a small header) count — exactly the paper's accounting.
///
/// In memory a chunk keeps one {index, mask, values} triple per nonzero
/// 64-bit word of its mask, the values in place, so extracting, checking
/// and applying it cost one word operation per triple. A chunk is immutable
/// once built; crash_multi builds each one once per world and shares it by
/// pointer among the responses that carry it (crashm::OwnerLayout).
class MaskChunk {
 public:
  /// Word `index` of the length-n index space: `mask` (nonzero) selects
  /// the bits present, `values` holds their values (values & ~mask == 0).
  using Word = BitVec::MaskedWord;

  /// The chunk of src's values at the set positions of `mask`.
  static MaskChunk extract(const BitVec& src, const SparseMask& mask);

  /// Length n of the index space.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Number of values carried.
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Wire size: data bits + constant header (see class comment).
  [[nodiscard]] std::size_t size_bits() const { return count_ + 64; }

  /// Writes values into `out` and sets the corresponding bits of
  /// `known_mask`; reports how many of those bits were not set before, and
  /// whether a bit that was set changed its value in `out`.
  BitVec::Assigned apply_to(BitVec& out, BitVec& known_mask) const;

  /// True if every index of the chunk is set in `known_mask` (same size).
  [[nodiscard]] bool is_subset_of(const BitVec& known_mask) const;

  /// In one pass: whether `src` (same size) holds the chunk's value at
  /// every index, and is_subset_of(known_mask).
  struct Checks {
    bool agrees;
    bool held;
  };
  [[nodiscard]] Checks check(const BitVec& src, const BitVec& known_mask) const;

  bool operator==(const MaskChunk& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  /// Content hash feeding Payload::content_hash (payload interning),
  /// computed once at construction.
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  MaskChunk(std::size_t size, std::vector<Word> words);

  std::vector<Word> words_;  ///< increasing index
  std::size_t size_ = 0;
  std::size_t count_ = 0;
  std::uint64_t hash_ = 0;
};

}  // namespace asyncdr::proto
