// Protocol 4 / Theorem 3.7: the 2-cycle randomized Download protocol for
// Byzantine faults with beta < 1/2.
//
// Cycle 1 — every peer picks one of s segments uniformly at random, queries
//   it in full, and broadcasts (segment, string).
// Cycle 2 — after hearing reports from >= k - t distinct peers, every peer
//   resolves each segment by building the decision tree over the
//   tau-frequent strings reported for it and querying the source at the
//   tree's separating indices. A vote-stuffed fake string costs extra
//   separator queries but can never be selected: the true string is in the
//   candidate set w.h.p. (Claim 5) and survives every separator query.
//
// Q = n/s + O(k) ~ O~(n / ((1-2 beta) k) + k) with high probability.
#pragma once

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

/// An honest peer of the 2-cycle protocol.
class TwoCyclePeer final : public dr::Peer {
 public:
  explicit TwoCyclePeer(RandParams params);

  void on_start() override;

  /// Bits spent on decision-tree separators (diagnostics for the benches;
  /// also part of the regular query accounting).
  [[nodiscard]] std::size_t tree_queries() const { return tree_queries_; }
  /// Segments that had no tau-frequent candidate and were re-queried in
  /// full (the w.h.p. failure path; benches report its frequency).
  [[nodiscard]] std::size_t fallback_segments() const { return fallback_segments_; }

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void try_decide();

  RandParams params_;
  std::unique_ptr<SegmentLayout> layout_;
  std::unique_ptr<StringBank> bank_;
  PeerSet reporters_;
  std::size_t my_pick_ = 0;
  BitVec my_value_;
  bool started_ = false;
  std::size_t tree_queries_ = 0;
  std::size_t fallback_segments_ = 0;
};

}  // namespace asyncdr::proto
