// Bookkeeping for the randomized protocols' received segment strings, and
// the paper's F(S, tau) operator: the set of "tau-frequent" strings — values
// reported identically by at least tau distinct peers for the same segment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hpp"
#include "sim/types.hpp"

namespace asyncdr::proto {

/// Per-segment multiset of received (peer, string) reports.
///
/// One vote per (peer, segment): a Byzantine peer re-sending different
/// strings for the same segment cannot stack the count — only its first
/// report is kept, mirroring the model where a peer sends one finding.
class StringBank {
 public:
  explicit StringBank(std::size_t segment_count);

  [[nodiscard]] std::size_t segment_count() const { return per_segment_.size(); }

  /// Records `from`'s report of `value` for segment `seg`. Returns true if
  /// the vote was counted (first report by this peer for this segment).
  bool record(std::size_t seg, sim::PeerId from, const BitVec& value) {
    return record(seg, from, value, value.hash());
  }
  /// The same, for a report that carries its value's hash (`hash` must be
  /// value.hash(); rnd::Report computes it once for all its recipients).
  bool record(std::size_t seg, sim::PeerId from, const BitVec& value,
              std::uint64_t hash);

  /// Number of distinct peers that reported anything for `seg` — the
  /// paper's R_i, which bounds the decision-tree cost for the segment.
  [[nodiscard]] std::size_t votes(std::size_t seg) const;

  /// Number of distinct strings reported for `seg`.
  [[nodiscard]] std::size_t distinct(std::size_t seg) const;

  /// Count of peers that reported exactly `value` for `seg`.
  [[nodiscard]] std::size_t support(std::size_t seg, const BitVec& value) const;

  /// F(S, tau): all strings reported for `seg` by >= tau distinct peers.
  /// Deterministic order, that of BitVec::to_string() (compared a word at a
  /// time), so runs are reproducible.
  [[nodiscard]] std::vector<BitVec> frequent(std::size_t seg, std::size_t tau) const;

 private:
  /// A reported string keyed by its hash, so a lookup never rehashes it;
  /// a Probe finds one without copying the string.
  struct Key {
    std::uint64_t hash;
    BitVec value;
  };
  struct Probe {
    std::uint64_t hash;
    const BitVec& value;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const { return k.hash; }
    std::size_t operator()(const Probe& p) const { return p.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const {
      return a.hash == b.hash && a.value == b.value;
    }
    bool operator()(const Probe& a, const Key& b) const {
      return a.hash == b.hash && a.value == b.value;
    }
    bool operator()(const Key& a, const Probe& b) const { return (*this)(b, a); }
  };

  struct SegmentVotes {
    /// Distinct supporters per string: each voter counts once, at its first
    /// report, so a count is all the string needs.
    std::unordered_map<Key, std::size_t, KeyHash, KeyEq> by_string;
    std::vector<bool> voted;  ///< [peer]: reported for this segment
    std::size_t voters = 0;   ///< set entries of `voted`
  };
  std::vector<SegmentVotes> per_segment_;
};

}  // namespace asyncdr::proto
