// Segment partition arithmetic for the randomized protocols: the input is
// split into s segments of (almost) equal length; the multi-cycle protocol
// then repeatedly pairs adjacent segments, doubling segment length, until a
// single segment covers the whole input (the 2-cycle protocol goes there in
// one step).
#pragma once

#include <cstddef>
#include <vector>

#include "common/interval_set.hpp"

namespace asyncdr::proto {

/// Partition of [0, n) into contiguous segments. The (n, count) constructor
/// builds an equal split (lengths differ by at most one); coarsen() pairs
/// adjacent segments so that every coarse segment is exactly the
/// concatenation of one or two fine segments — the invariant the randomized
/// protocols' decision trees rely on.
class SegmentLayout {
 public:
  SegmentLayout(std::size_t n, std::size_t count);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t count() const { return bounds_.size() - 1; }

  /// Inclusive-exclusive bit range of segment `id`.
  [[nodiscard]] Interval bounds(std::size_t id) const;
  [[nodiscard]] std::size_t length(std::size_t id) const { return bounds(id).length(); }

  /// The segment containing bit index `i`.
  [[nodiscard]] std::size_t segment_of(std::size_t i) const;

  /// Pairs adjacent segments: new segment j = old segments {2j, 2j+1}
  /// (just {2j} when the count is odd and 2j is last).
  [[nodiscard]] SegmentLayout coarsen() const;

  /// The IDs [lo, hi) of the segments that tile `range`, a segment of a
  /// coarser layout over the same input whose ends are boundaries of this
  /// one (coarsen(), or the single segment [0, n)): segment_of(range.lo)
  /// through segment_of(range.hi - 1). Empty for an empty range.
  [[nodiscard]] Interval segments_in(Interval range) const;

  bool operator==(const SegmentLayout&) const = default;

 private:
  explicit SegmentLayout(std::vector<std::size_t> boundary_points);

  std::size_t n_ = 0;
  std::vector<std::size_t> bounds_;  // count()+1 boundary points, 0..n
};

}  // namespace asyncdr::proto
