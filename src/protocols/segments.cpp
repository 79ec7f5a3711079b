#include "protocols/segments.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace asyncdr::proto {

SegmentLayout::SegmentLayout(std::size_t n, std::size_t count) : n_(n) {
  ASYNCDR_EXPECTS(n >= 1);
  // count may exceed n, in which case trailing segments are empty (the
  // crash protocols hand every peer a block even when k > n).
  ASYNCDR_EXPECTS(count >= 1);
  bounds_.reserve(count + 1);
  // Equal split: the first (n mod count) segments get one extra bit.
  const std::size_t base = n / count;
  const std::size_t extra = n % count;
  std::size_t pos = 0;
  bounds_.push_back(0);
  for (std::size_t i = 0; i < count; ++i) {
    pos += base + (i < extra ? 1 : 0);
    bounds_.push_back(pos);
  }
  ASYNCDR_ENSURES(pos == n);
}

SegmentLayout::SegmentLayout(std::vector<std::size_t> boundary_points)
    : n_(boundary_points.back()), bounds_(std::move(boundary_points)) {}

Interval SegmentLayout::bounds(std::size_t id) const {
  ASYNCDR_EXPECTS(id < count());
  return Interval{bounds_[id], bounds_[id + 1]};
}

std::size_t SegmentLayout::segment_of(std::size_t i) const {
  ASYNCDR_EXPECTS(i < n_);
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), i);
  return static_cast<std::size_t>(it - bounds_.begin()) - 1;
}

SegmentLayout SegmentLayout::coarsen() const {
  ASYNCDR_EXPECTS_MSG(count() > 1, "cannot coarsen a single segment");
  std::vector<std::size_t> pts;
  pts.reserve(count() / 2 + 2);
  for (std::size_t i = 0; i < bounds_.size(); i += 2) pts.push_back(bounds_[i]);
  if (pts.back() != n_) pts.push_back(n_);
  return SegmentLayout(std::move(pts));
}

Interval SegmentLayout::segments_in(Interval range) const {
  if (range.length() == 0) return Interval{};
  const Interval ids{segment_of(range.lo), segment_of(range.hi - 1) + 1};
  ASYNCDR_EXPECTS_MSG(
      bounds_[ids.lo] == range.lo && bounds_[ids.hi] == range.hi,
      "range ends are not segment boundaries");
  return ids;
}

}  // namespace asyncdr::proto
