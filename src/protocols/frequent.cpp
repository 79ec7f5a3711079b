#include "protocols/frequent.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace asyncdr::proto {

StringBank::StringBank(std::size_t segment_count)
    : per_segment_(segment_count) {
  ASYNCDR_EXPECTS(segment_count >= 1);
}

bool StringBank::record(std::size_t seg, sim::PeerId from,
                        const BitVec& value) {
  ASYNCDR_EXPECTS(seg < per_segment_.size() && from != sim::kNoPeer);
  SegmentVotes& sv = per_segment_[seg];
  if (sv.voted.size() <= from) sv.voted.resize(from + 1);
  if (sv.voted[from]) return false;
  sv.voted[from] = true;
  ++sv.voters;
  ++sv.by_string[value];
  return true;
}

std::size_t StringBank::votes(std::size_t seg) const {
  ASYNCDR_EXPECTS(seg < per_segment_.size());
  return per_segment_[seg].voters;
}

std::size_t StringBank::distinct(std::size_t seg) const {
  ASYNCDR_EXPECTS(seg < per_segment_.size());
  return per_segment_[seg].by_string.size();
}

std::size_t StringBank::support(std::size_t seg, const BitVec& value) const {
  ASYNCDR_EXPECTS(seg < per_segment_.size());
  const auto& by_string = per_segment_[seg].by_string;
  const auto it = by_string.find(value);
  return it == by_string.end() ? 0 : it->second;
}

std::vector<BitVec> StringBank::frequent(std::size_t seg,
                                         std::size_t tau) const {
  ASYNCDR_EXPECTS(seg < per_segment_.size());
  ASYNCDR_EXPECTS(tau >= 1);
  std::vector<BitVec> out;
  // asyncdr-lint: allow(DR013) hash-order iteration only selects members of
  //   an unordered candidate set; the sort below fixes the order before
  //   anything order-sensitive sees the result.
  for (const auto& [value, supporters] : per_segment_[seg].by_string) {
    if (supporters >= tau) out.push_back(value);
  }
  std::sort(out.begin(), out.end(), [](const BitVec& a, const BitVec& b) {
    return a.to_string() < b.to_string();
  });
  return out;
}

}  // namespace asyncdr::proto
