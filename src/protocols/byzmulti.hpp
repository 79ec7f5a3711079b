// Theorem 3.12: the multi-cycle randomized Download protocol. Cycle 1 is
// Protocol 4's first cycle (s segments). In every later cycle j, segments
// double in length (adjacent pairs merge); each peer picks one cycle-j
// segment uniformly at random, *determines* it by resolving the decision
// trees of its two cycle-(j-1) halves against the tau-frequent strings of
// the previous cycle, and broadcasts the result. After ~log2(s) cycles one
// segment spans the whole input and every peer determines — and therefore
// learns — all of X, w.h.p. (Lemmas 3.8 and 3.10).
//
// Expected Q = O~(n/s + k); no peer ever queries a full segment after
// cycle 1 except on the (measured, w.h.p.-rare) fallback path.
#pragma once

#include <map>
#include <vector>

#include "dr/peer.hpp"
#include "protocols/byz2cycle.hpp"
#include "protocols/frequent.hpp"
#include "protocols/params.hpp"
#include "protocols/peer_set.hpp"
#include "protocols/segments.hpp"

namespace asyncdr::proto {

/// An honest peer of the multi-cycle protocol.
class MultiCyclePeer final : public dr::Peer {
 public:
  explicit MultiCyclePeer(RandParams params);

  void on_start() override;

  [[nodiscard]] std::size_t tree_queries() const { return tree_queries_; }
  [[nodiscard]] std::size_t fallback_segments() const { return fallback_segments_; }
  [[nodiscard]] std::size_t cycles_run() const { return cycle_; }

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void init_structures();
  void try_advance();
  void start_cycle(std::size_t j);
  /// Resolves one cycle-`j` segment from the cycle-j reports (1-based j).
  BitVec determine_segment(std::size_t j, std::size_t seg);

  RandParams params_;
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
