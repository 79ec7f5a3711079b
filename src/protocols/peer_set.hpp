// Membership set over PeerIds, sized for "heard from" books at large k.
//
// Protocol "heard from" books used to be std::set<PeerId>: one red-black
// node (~64 heap bytes) per recorded peer, times k peers keeping books,
// times the phase count. PeerSet packs the same membership into a lazily
// sized bit vector plus a count — k/8 bytes worst case, and ZERO bytes for
// the common large-k shape where every live peer completes directly and
// never records a sender. Only insert/contains/size are offered: the
// protocol books never iterate their members, which is what makes the
// unordered representation behavior-invisible.
#pragma once

#include <cstddef>

#include "common/bitvec.hpp"
#include "sim/types.hpp"

namespace asyncdr::proto {

class PeerSet {
 public:
  PeerSet() = default;

  /// Records `id`; returns true if it was new. The backing bit vector is
  /// allocated (sized to `k`) on the first insert only.
  bool insert(sim::PeerId id, std::size_t k) {
    if (bits_.size() < k) bits_ = BitVec(k);
    if (bits_.get(id)) return false;
    bits_.set(id, true);
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(sim::PeerId id) const {
    return id < bits_.size() && bits_.get(id);
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Heap bytes of the backing bit vector (same modeling conventions as
  /// BitVec::memory_bytes; 0 until the first insert).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return bits_.memory_bytes();
  }

 private:
  BitVec bits_;
  std::size_t count_ = 0;
};

}  // namespace asyncdr::proto
