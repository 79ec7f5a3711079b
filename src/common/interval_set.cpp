#include "common/interval_set.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/check.hpp"

namespace asyncdr {

IntervalSet IntervalSet::full(std::size_t n) { return of(0, n); }

IntervalSet IntervalSet::of(std::size_t lo, std::size_t hi) {
  IntervalSet s;
  s.insert(lo, hi);
  return s;
}

bool IntervalSet::contains(std::size_t i) const {
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), i,
      [](std::size_t x, const Interval& iv) { return x < iv.lo; });
  if (it == intervals_.begin()) return false;
  --it;
  return i >= it->lo && i < it->hi;
}

bool IntervalSet::covers(std::size_t lo, std::size_t hi) const {
  ASYNCDR_EXPECTS(lo <= hi);
  if (lo == hi) return true;
  // Adjacent intervals are coalesced, so a covered range lies in one.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](std::size_t x, const Interval& iv) { return x < iv.hi; });
  return it != intervals_.end() && it->lo <= lo && hi <= it->hi;
}

void IntervalSet::insert(std::size_t lo, std::size_t hi) {
  ASYNCDR_EXPECTS(lo <= hi);
  if (lo == hi) return;
  // Find all intervals that touch or overlap [lo, hi) and merge them.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](const Interval& iv, std::size_t x) { return iv.hi < x; });
  auto last = first;
  std::size_t new_lo = lo;
  std::size_t new_hi = hi;
  while (last != intervals_.end() && last->lo <= hi) {
    new_lo = std::min(new_lo, last->lo);
    new_hi = std::max(new_hi, last->hi);
    ++last;
  }
  const auto pos = intervals_.erase(first, last);
  intervals_.insert(pos, Interval{new_lo, new_hi});
  recount();
}

void IntervalSet::erase(std::size_t lo, std::size_t hi) {
  ASYNCDR_EXPECTS(lo <= hi);
  if (lo == hi) return;
  // [first, last): the intervals overlapping [lo, hi), i.e. those ending
  // after lo and starting before hi.
  const auto first = std::upper_bound(
      intervals_.begin(), intervals_.end(), lo,
      [](std::size_t x, const Interval& iv) { return x < iv.hi; });
  auto last = first;
  while (last != intervals_.end() && last->lo < hi) {
    count_ -= std::min(last->hi, hi) - std::max(last->lo, lo);
    ++last;
  }
  if (first == last) return;
  // What survives: the part of the first overlap left of lo and the part
  // of the last overlap right of hi, written over the overlaps' slots.
  const Interval left{first->lo, lo};
  const Interval right{hi, std::prev(last)->hi};
  const bool keep_left = left.lo < left.hi;
  const bool keep_right = right.lo < right.hi;
  if (keep_left && keep_right && std::next(first) == last) {
    // [lo, hi) splits one interval in two.
    *first = left;
    intervals_.insert(last, right);
    return;
  }
  auto out = first;
  if (keep_left) *out++ = left;
  if (keep_right) *out++ = right;
  intervals_.erase(out, last);
}

void IntervalSet::unite(const IntervalSet& other) {
  for (const Interval& iv : other.intervals_) insert(iv.lo, iv.hi);
}

void IntervalSet::subtract(const IntervalSet& other) {
  for (const Interval& iv : other.intervals_) erase(iv.lo, iv.hi);
}

void IntervalSet::intersect(const IntervalSet& other) {
  std::vector<Interval> out;
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    const std::size_t lo = std::max(a->lo, b->lo);
    const std::size_t hi = std::min(a->hi, b->hi);
    if (lo < hi) out.push_back(Interval{lo, hi});
    if (a->hi < b->hi) {
      ++a;
    } else {
      ++b;
    }
  }
  intervals_ = std::move(out);
  recount();
}

std::vector<IntervalSet> IntervalSet::split_evenly(std::size_t parts) const {
  ASYNCDR_EXPECTS(parts > 0);
  std::vector<IntervalSet> out(parts);
  const std::size_t total = count_;
  if (total == 0) return out;
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;  // first `extra` parts get +1

  std::size_t part = 0;
  std::size_t remaining_in_part = base + (extra > 0 ? 1 : 0);
  // Skip initially empty parts when total < parts.
  while (remaining_in_part == 0 && part + 1 < parts) {
    ++part;
    remaining_in_part = base + (part < extra ? 1 : 0);
  }
  for (const Interval& iv : intervals_) {
    std::size_t lo = iv.lo;
    while (lo < iv.hi) {
      const std::size_t take = std::min(iv.hi - lo, remaining_in_part);
      out[part].insert(lo, lo + take);
      lo += take;
      remaining_in_part -= take;
      while (remaining_in_part == 0 && part + 1 < parts) {
        ++part;
        remaining_in_part = base + (part < extra ? 1 : 0);
      }
    }
  }
  return out;
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const Interval& iv : intervals_) {
    if (!first) os << ", ";
    first = false;
    os << '[' << iv.lo << ',' << iv.hi << ')';
  }
  os << '}';
  return os.str();
}

void IntervalSet::recount() {
  count_ = 0;
  for (const Interval& iv : intervals_) count_ += iv.length();
}

}  // namespace asyncdr
