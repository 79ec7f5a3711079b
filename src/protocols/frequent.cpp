#include "protocols/frequent.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace asyncdr::proto {

StringBank::StringBank(std::size_t segment_count)
    : per_segment_(segment_count) {
  ASYNCDR_EXPECTS(segment_count >= 1);
}

namespace {

/// a.to_string() < b.to_string(), a word at a time. Character i of the
/// rendering is bit i, which word i / 64 holds at bit i % 64. So the first
/// character where the common prefix of the two differs is the lowest set
/// bit of the XOR of the first word whose common bits differ, and there b
/// renders '1' > '0' exactly when b's bit is set. With no difference in the
/// common prefix, the shorter string is a proper prefix (or equal) and sorts
/// first, as std::string's comparison does.
bool rendered_less(const BitVec& a, const BitVec& b) {
  const std::size_t common = std::min(a.size(), b.size());
  const auto wa = a.words();
  const auto wb = b.words();
  for (std::size_t w = 0; w * 64 < common; ++w) {
    std::uint64_t diff = wa[w] ^ wb[w];
    const std::size_t left = common - w * 64;
    if (left < 64) diff &= (std::uint64_t{1} << left) - 1;
    if (diff != 0) return ((wb[w] >> std::countr_zero(diff)) & 1) != 0;
  }
  return a.size() < b.size();
}

}  // namespace

bool StringBank::record(std::size_t seg, sim::PeerId from,
                        const BitVec& value, std::uint64_t hash) {
  ASYNCDR_EXPECTS(seg < per_segment_.size() && from != sim::kNoPeer);
  SegmentVotes& sv = per_segment_[seg];
  if (sv.voted.size() <= from) sv.voted.resize(from + 1);
  if (sv.voted[from]) return false;
  sv.voted[from] = true;
  ++sv.voters;
  const auto it = sv.by_string.find(Probe{hash, value});
  if (it != sv.by_string.end()) {
    ++it->second;
  } else {
    sv.by_string.emplace(Key{hash, value}, 1);
  }
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
  const auto it = by_string.find(Probe{value.hash(), value});
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
  for (const auto& [key, supporters] : per_segment_[seg].by_string) {
    if (supporters >= tau) out.push_back(key.value);
  }
  std::sort(out.begin(), out.end(), rendered_less);
  return out;
}

}  // namespace asyncdr::proto
