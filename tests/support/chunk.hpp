// Reference value check for MaskChunk, built on the public apply_to rather
// than on the word kernel MaskChunk::check runs, so a test comparing the two
// compares independent computations.
#pragma once

#include "common/bitvec.hpp"
#include "protocols/chunk.hpp"

namespace asyncdr::support {

/// True iff `src` (the chunk's size) holds the chunk's value at every
/// index: applying the chunk over a copy of `src` leaves the copy equal to
/// `src`.
inline bool agrees_with(const proto::MaskChunk& chunk, const BitVec& src) {
  BitVec copy = src;
  BitVec known(src.size());
  (void)chunk.apply_to(copy, known);
  return copy == src;
}

}  // namespace asyncdr::support
