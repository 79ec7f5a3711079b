// The trusted external data source of the DR model. It answers batches of
// runs with the true bits of X and accounts every queried bit per peer — the
// quantity the paper's query complexity measures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/interval_set.hpp"
#include "sim/types.hpp"

namespace asyncdr::dr {

/// Read-only n-bit array with per-peer query accounting.
///
/// Queries are answered synchronously. In the paper source-to-peer
/// communication is also asynchronous, but every protocol here issues its
/// queries at a stage boundary and blocks on nothing else until the answers
/// are used, so delaying answers only rescales time without changing any
/// decision; the simplification is recorded in DESIGN.md.
class Source {
 public:
  Source(BitVec data, std::size_t k);

  [[nodiscard]] std::size_t n() const { return data_.size(); }
  [[nodiscard]] std::size_t peers() const { return counts_.size(); }

  /// Queries a batch of runs on behalf of peer `by`: the only way to read
  /// X, one bit or one range being a batch of one run. The runs must be
  /// ascending, non-empty and disjoint; the batch costs their total length.
  /// The result holds the runs' bits back to back, in run order. Each run
  /// is read and recorded whole, and a non-empty batch is one accounted
  /// batch (one observer call). A run out of bounds throws before any bit
  /// of the batch is charged.
  BitVec query_runs(sim::PeerId by, std::span<const Interval> runs);

  /// Bits queried so far by one peer.
  [[nodiscard]] std::uint64_t bits_queried(sim::PeerId by) const;

  /// Total bits the source has served across all peers — maintained as its
  /// own counter (not derived from the per-peer array) so consistency tests
  /// can cross-check the two accounting paths.
  [[nodiscard]] std::uint64_t total_bits_served() const { return total_bits_served_; }

  /// When enabled, records *which* indices each peer queried — used by the
  /// lower-bound adversary to find a bit the victim never looked at.
  void enable_index_recording(bool on) { record_indices_ = on; }
  [[nodiscard]] const IntervalSet& queried_indices(sim::PeerId by) const;

  /// Observer invoked once per accounted query batch (peer, bits): once per
  /// non-empty query_runs call — wired to the phase tracker, the execution
  /// trace and the world's query listeners.
  using QueryObserver = std::function<void(sim::PeerId, std::size_t)>;
  void set_query_observer(QueryObserver observer) {
    query_observer_ = std::move(observer);
  }

  /// Ground truth, for verification only (peers must go through query_runs()).
  [[nodiscard]] const BitVec& data() const { return data_; }

  /// Swaps in a different array without resetting counters. Only the
  /// two-world lower-bound constructions use this.
  void set_data(BitVec data);

  /// Makes queries by `peer` answer from `fake` instead of the real array
  /// (still accounted). This is how the Theorem 3.1/3.2 adversary's
  /// corrupted coalition "acts as if the input were X": they run the honest
  /// code against the other world's source.
  void set_overlay(sim::PeerId peer, BitVec fake);

  /// Modeled heap bytes of the source's state (data array, per-peer
  /// accounting, recorded index sets, overlays) — the `dr.source` pool's
  /// epoch-sampled reading.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Adds [lo, hi) to the peer's recorded index set, if recording.
  void record(sim::PeerId by, std::size_t lo, std::size_t hi);
  /// Charges one query batch of `bits` bits and notifies the observer.
  void account(sim::PeerId by, std::size_t bits);

  [[nodiscard]] const BitVec& view_for(sim::PeerId by) const;

  BitVec data_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_bits_served_ = 0;
  std::vector<IntervalSet> indices_;
  std::map<sim::PeerId, BitVec> overlays_;
  QueryObserver query_observer_;
  bool record_indices_ = false;
};

}  // namespace asyncdr::dr
