// Sorted disjoint half-open interval set over bit indices. The crash-fault
// Download protocols track "unknown bits" and per-peer assignments as index
// sets; intervals keep those operations O(#intervals) instead of O(n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace asyncdr {

/// Half-open interval [lo, hi).
struct Interval {
  std::size_t lo = 0;
  std::size_t hi = 0;

  [[nodiscard]] std::size_t length() const { return hi - lo; }
  bool operator==(const Interval&) const = default;
};

/// A set of bit indices represented as sorted, disjoint, non-adjacent
/// half-open intervals.
///
/// Invariant: intervals are non-empty, sorted by lo, and separated by gaps
/// (adjacent intervals are coalesced).
class IntervalSet {
 public:
  IntervalSet() = default;

  /// The full range [0, n).
  static IntervalSet full(std::size_t n);

  /// A single interval [lo, hi).
  static IntervalSet of(std::size_t lo, std::size_t hi);

  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool contains(std::size_t i) const;
  /// True if every index of [lo, hi) is in the set (an empty range always
  /// is): one binary search, no allocation.
  [[nodiscard]] bool covers(std::size_t lo, std::size_t hi) const;

  void insert(std::size_t i) { insert(i, i + 1); }
  void insert(std::size_t lo, std::size_t hi);
  void erase(std::size_t i) { erase(i, i + 1); }
  void erase(std::size_t lo, std::size_t hi);

  /// In-place set union / difference / intersection. erase and subtract
  /// edit the interval storage in place: they allocate only to split one
  /// interval in two beyond the storage's capacity.
  void unite(const IntervalSet& other);
  void subtract(const IntervalSet& other);
  void intersect(const IntervalSet& other);

  /// Splits the set into `parts` pieces whose sizes differ by at most one,
  /// in index order. Used to spread unknown bits evenly over peers.
  [[nodiscard]] std::vector<IntervalSet> split_evenly(std::size_t parts) const;

  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }

  [[nodiscard]] std::string to_string() const;

  /// Raw heap bytes behind the interval storage (capacity, not size).
  [[nodiscard]] std::size_t memory_bytes() const {
    return intervals_.capacity() * sizeof(Interval);
  }

  bool operator==(const IntervalSet&) const = default;

  /// 64-bit FNV-style content hash (normalized representation, so equal
  /// sets hash equally). Feeds Payload::content_hash implementations.
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Interval& iv : intervals_) {
      h = (h ^ static_cast<std::uint64_t>(iv.lo)) * 0x100000001b3ull;
      h = (h ^ static_cast<std::uint64_t>(iv.hi)) * 0x100000001b3ull;
    }
    return h;
  }

 private:
  void recount();

  std::vector<Interval> intervals_;
  std::size_t count_ = 0;
};

}  // namespace asyncdr
