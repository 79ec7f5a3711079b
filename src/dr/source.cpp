#include "dr/source.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/mem.hpp"

namespace asyncdr::dr {

Source::Source(BitVec data, std::size_t k)
    : data_(std::move(data)), counts_(k, 0), indices_(k) {
  ASYNCDR_EXPECTS(k >= 1);
  ASYNCDR_EXPECTS(data_.size() >= 1);
}

const BitVec& Source::view_for(sim::PeerId by) const {
  const auto it = overlays_.find(by);
  return it == overlays_.end() ? data_ : it->second;
}

namespace {

std::string oob_message(std::size_t got, std::size_t n) {
  return "Source::query_runs: index " + std::to_string(got) +
         " out of bounds for the n=" + std::to_string(n) + "-bit array";
}

}  // namespace

BitVec Source::query_runs(sim::PeerId by, std::span<const Interval> runs) {
  ASYNCDR_EXPECTS_MSG(by < counts_.size(),
                      "Source::query_runs: unknown peer id " +
                          std::to_string(by));
  const std::size_t n = data_.size();
  // Every run is checked before anything is charged, so a rejected batch
  // costs nothing. A run past the end names its first index out of
  // bounds: its lo, or else n.
  std::size_t bits = 0;
  std::size_t floor = 0;
  for (const Interval& run : runs) {
    ASYNCDR_EXPECTS_MSG(run.hi <= n,
                        oob_message(std::max(run.lo, n), n));
    ASYNCDR_EXPECTS_MSG(floor <= run.lo && run.lo < run.hi,
                        "Source::query_runs: runs must be ascending, "
                        "non-empty and disjoint");
    floor = run.hi;
    bits += run.length();
  }
  const BitVec& view = view_for(by);
  BitVec out(bits);
  std::size_t at = 0;
  for (const Interval& run : runs) {
    out.copy_range(at, view, run.lo, run.length());
    record(by, run.lo, run.hi);
    at += run.length();
  }
  if (bits != 0) account(by, bits);
  return out;
}

std::uint64_t Source::bits_queried(sim::PeerId by) const {
  ASYNCDR_EXPECTS(by < counts_.size());
  return counts_[by];
}

const IntervalSet& Source::queried_indices(sim::PeerId by) const {
  ASYNCDR_EXPECTS(by < indices_.size());
  ASYNCDR_EXPECTS_MSG(record_indices_, "index recording is disabled");
  return indices_[by];
}

void Source::set_data(BitVec data) {
  ASYNCDR_EXPECTS(data.size() == data_.size());
  data_ = std::move(data);
}

void Source::set_overlay(sim::PeerId peer, BitVec fake) {
  ASYNCDR_EXPECTS(peer < counts_.size());
  ASYNCDR_EXPECTS(fake.size() == data_.size());
  overlays_[peer] = std::move(fake);
}

std::size_t Source::memory_bytes() const {
  std::uint64_t total = obs::modeled_alloc_bytes(data_.memory_bytes());
  total += obs::modeled_alloc_bytes(counts_.capacity() * sizeof(std::uint64_t));
  total += obs::modeled_alloc_bytes(indices_.capacity() * sizeof(IntervalSet));
  for (const IntervalSet& s : indices_) {
    total += obs::modeled_alloc_bytes(s.memory_bytes());
  }
  for (const auto& [peer, overlay] : overlays_) {
    // Each map node: the BitVec's words plus a modeled 48-byte rb-tree
    // node overhead (key + color/parent/child pointers).
    total += obs::modeled_alloc_bytes(overlay.memory_bytes()) +
             obs::modeled_alloc_bytes(48);
  }
  return static_cast<std::size_t>(total);
}

void Source::record(sim::PeerId by, std::size_t lo, std::size_t hi) {
  if (record_indices_) indices_[by].insert(lo, hi);
}

void Source::account(sim::PeerId by, std::size_t bits) {
  counts_[by] += bits;
  total_bits_served_ += bits;
  if (query_observer_) query_observer_(by, bits);
}

}  // namespace asyncdr::dr
