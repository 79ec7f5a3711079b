// The randomized Byzantine Download protocols for beta < 1/2: Protocol 4
// (Theorem 3.7, two cycles) and its multi-cycle generalization (Theorem
// 3.12). Both run one cycle per level of a chain of segment layouts whose
// last level is a single segment spanning the whole input.
//
// Cycle 1 — every peer picks one of s segments uniformly at random, queries
//   it in full, and broadcasts (segment, string).
// Cycle j > 1 — after hearing cycle-(j-1) reports from >= k - t distinct
//   peers, every peer picks one cycle-j segment uniformly at random and
//   *determines* it: each cycle-(j-1) segment inside it is resolved by the
//   decision tree over the tau-frequent strings reported for it, querying
//   the source at the tree's separating indices. A vote-stuffed fake string
//   costs extra separator queries but can never be selected: the true
//   string is in the candidate set w.h.p. (Claim 5, Lemmas 3.8 and 3.10)
//   and survives every separator query. Every cycle but the last
//   broadcasts its result; in the last, the single segment is all of X.
//
// The 2-cycle schedule is the chain {s segments, 1 segment}:
//   Q = n/s + O(k) ~ O~(n / ((1-2 beta) k) + k) with high probability.
// The multi-cycle schedule halves the segment count per cycle (adjacent
// pairs merge), ~log2(s) cycles: expected Q = O~(n/s + k), and no peer
// queries a full segment after cycle 1 except on the (measured,
// w.h.p.-rare) fallback path.
#pragma once

#include <vector>

#include "dr/peer.hpp"
#include "protocols/frequent.hpp"
#include "protocols/params.hpp"
#include "protocols/peer_set.hpp"
#include "protocols/segments.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

namespace rnd {

/// A segment report: "I queried segment `seg` (of the cycle's layout) and
/// saw `value`".
struct Report final : sim::Payload {
  const std::size_t cycle;
  const std::size_t seg;
  const BitVec value;
  /// value.hash(), computed once here: every recipient's StringBank keys
  /// the report by it.
  const std::uint64_t hash;

  Report(std::size_t cy, std::size_t sg, BitVec v)
      : cycle(cy), seg(sg), value(std::move(v)), hash(value.hash()) {}
  [[nodiscard]] std::size_t size_bits() const override { return value.size() + 64; }
  [[nodiscard]] std::string type_name() const override { return "rnd::Report"; }
};

}  // namespace rnd

/// An honest peer of the 2-cycle or the multi-cycle protocol.
class MultiCyclePeer final : public dr::Peer {
 public:
  /// The layout chain, fixed by the protocol's factory.
  enum class Schedule {
    kTwoCycle,    ///< Thm 3.7: s segments, then 1
    kMultiCycle,  ///< Thm 3.12: s segments, halved until 1
  };

  MultiCyclePeer(RandParams params, Schedule schedule);

  void on_start() override;

  /// Bits spent on decision-tree separators (diagnostics for the benches;
  /// also part of the regular query accounting).
  [[nodiscard]] std::size_t tree_queries() const { return tree_queries_; }
  /// Segments that had no tau-frequent candidate and were re-queried in
  /// full (the w.h.p. failure path; benches report its frequency).
  [[nodiscard]] std::size_t fallback_segments() const { return fallback_segments_; }
  [[nodiscard]] std::size_t cycles_run() const { return cycle_; }

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void init_structures();
  [[nodiscard]] std::string phase_name(std::size_t j) const;
  void try_advance();
  void start_cycle(std::size_t j);
  /// Resolves one cycle-`j` segment from the cycle-j reports (1-based j).
  BitVec determine_segment(std::size_t j, std::size_t seg);

  RandParams params_;
  Schedule schedule_;
  // layouts_[j-1] is the layout of cycle j; the last one has one segment.
  std::vector<SegmentLayout> layouts_;
  std::vector<StringBank> banks_;               // banks_[j-1]: cycle-j reports
  std::vector<PeerSet> reporters_;              // per cycle
  std::size_t total_cycles_ = 0;

  std::size_t cycle_ = 0;  // current cycle (1-based); 0 = not started
  std::size_t my_pick_ = 0;
  BitVec my_value_;
  bool started_ = false;
  std::size_t tree_queries_ = 0;
  std::size_t fallback_segments_ = 0;
};

}  // namespace asyncdr::proto
