// Reference value check for MaskChunk, built on the public apply_to rather
// than on the word kernel MaskChunk::check runs, so a test comparing the two
// compares independent computations.
#pragma once

#include "common/bitvec.hpp"
#include "protocols/chunk.hpp"

namespace asyncdr::support {

/// True iff `src` (the chunk's size) holds the chunk's value at every
/// index: applying the chunk over a copy of `src`, every bit already known,
/// rewrites none of them.
inline bool agrees_with(const proto::MaskChunk& chunk, const BitVec& src) {
  BitVec copy = src;
  BitVec known(src.size(), true);
  return !chunk.apply_to(copy, known).rewrote;
}

}  // namespace asyncdr::support
