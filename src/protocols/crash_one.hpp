// Algorithm 1 of the paper: deterministic asynchronous Download tolerating a
// single crash fault (t = 1). Two phases of three stages each:
//
//   Phase r, stage 1 — query the bits assigned to me that are still unknown
//     and push their values to everyone.
//   Phase r, stage 2 — wait until stage-1 coverage from >= k-1 peers
//     (counting myself); name the one peer I am missing and broadcast a
//     stage-2 request for its bits.
//   Phase r, stage 3 — wait for >= k-1 stage-2 responses (counting my own
//     implicit "me neither"). If anyone supplied the missing bits, enter
//     completion mode; otherwise reassign the missing peer's block evenly
//     over the k-1 remaining peers for phase 2.
//
// In phase 2, a completion-mode peer pushes ALL bits (acting as a full-array
// fallback for peers stuck waiting on a terminated peer) and a lacking peer
// pushes its reassigned share, then both terminate once their output is
// complete. Lemma 2.1 (via the Overlap Lemma) guarantees all lacking peers
// agree on the missing peer, so the phase-2 reassignments coincide.
//
// Query complexity: ceil(n/k) in phase 1 plus at most
// ceil(ceil(n/k)/(k-1)) in phase 2 — the Theorem 2.3 bound.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/interval_set.hpp"
#include "dr/peer.hpp"
#include "protocols/chunk.hpp"
#include "protocols/segments.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Payloads of Algorithm 1.
namespace crash1 {

/// Stage-1 push: the sender's (re)assigned bit values for `phase`.
struct Stage1 final : sim::Payload {
  std::size_t phase;
  BitChunk chunk;

  Stage1(std::size_t ph, BitChunk c) : phase(ph), chunk(std::move(c)) {}
  [[nodiscard]] std::size_t size_bits() const override { return 8 + chunk.size_bits(); }
  [[nodiscard]] std::string type_name() const override { return "crash1::Stage1"; }
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(sim::payload_hash_mix(0x0201, phase),
                                 chunk.hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Stage1>(other);
    return o != nullptr && o->phase == phase && o->chunk == chunk;
  }
};

/// Stage-2 request: "I am missing peer `missing`; send me `needed`".
struct Stage2Req final : sim::Payload {
  std::size_t phase;
  sim::PeerId missing;
  IntervalSet needed;

  Stage2Req(std::size_t ph, sim::PeerId m, IntervalSet idx)
      : phase(ph), missing(m), needed(std::move(idx)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + 64 + 128 * needed.intervals().size();
  }
  [[nodiscard]] std::string type_name() const override { return "crash1::Stage2Req"; }
  // Interning: the Overlap Lemma makes all lacking peers name the same
  // missing peer, so their stage-2 requests often coincide exactly.
  [[nodiscard]] std::uint64_t content_hash() const override {
    std::uint64_t h = sim::payload_hash_mix(0x0202, phase);
    h = sim::payload_hash_mix(h, missing);
    return sim::payload_hash_mix(h, needed.hash()) | 1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Stage2Req>(other);
    return o != nullptr && o->phase == phase && o->missing == missing &&
           o->needed == needed;
  }
};

/// Stage-2 response: the requested bits, or "me neither".
struct Stage2Resp final : sim::Payload {
  std::size_t phase;
  sim::PeerId missing;
  bool has_bits;
  BitChunk chunk;  // empty when has_bits is false

  Stage2Resp(std::size_t ph, sim::PeerId m, bool has, BitChunk c)
      : phase(ph), missing(m), has_bits(has), chunk(std::move(c)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + 64 + 1 + chunk.size_bits();
  }
  [[nodiscard]] std::string type_name() const override { return "crash1::Stage2Resp"; }
  [[nodiscard]] std::uint64_t content_hash() const override {
    std::uint64_t h = sim::payload_hash_mix(0x0203, phase);
    h = sim::payload_hash_mix(h, missing);
    h = sim::payload_hash_mix(h, has_bits ? 1 : 0);
    return sim::payload_hash_mix(h, chunk.hash()) | 1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Stage2Resp>(other);
    return o != nullptr && o->phase == phase && o->missing == missing &&
           o->has_bits == has_bits && o->chunk == chunk;
  }
};

}  // namespace crash1

/// A nonfaulty peer of Algorithm 1. Requires k >= 3.
class CrashOnePeer final : public dr::Peer {
 public:
  void on_start() override;
  /// Crash-recovery resume: seeds out_/known_ from the replayed journal,
  /// queries only the missing bits, then acts as a completion-mode peer
  /// (full-array push) so it terminates even if everyone else already has.
  void on_restart(const dr::RecoveryState& state) override;

  /// Adds the working set (stage-1 coverage, parked requests) to the base
  /// output accounting.
  [[nodiscard]] std::size_t memory_bytes() const override;

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  enum class Progress {
    kStart,
    kPhase1Wait1,   // stage 2 of phase 1: waiting for stage-1 coverage
    kPhase1Wait2,   // stage 3 of phase 1: waiting for stage-2 responses
    kPhase2,        // phase-2 share broadcast; waiting for full knowledge
    kDone,
  };

  // The fixed phase-1 assignment: peer q owns block q.
  [[nodiscard]] SegmentLayout blocks() const { return SegmentLayout(n(), k()); }

  void ensure_init();
  void start_phase1();
  void try_advance();
  void answer_pending_requests();
  void answer_request(sim::PeerId from, const crash1::Stage2Req& req);
  void enter_phase2();
  void maybe_finish();

  /// Phase-2 share of `missing`'s block owned by `owner` (canonical rule
  /// shared by every peer: the block split evenly over peers != missing in
  /// increasing ID order).
  [[nodiscard]] IntervalSet phase2_share(sim::PeerId missing, sim::PeerId owner) const;

  Progress progress_ = Progress::kStart;
  BitVec out_;
  IntervalSet known_;

  std::optional<sim::PeerId> missing_;
  std::size_t responses_ = 1;  // my own implicit "me neither"
  bool got_missing_bits_ = false;
  bool phase2_broadcast_done_ = false;

  /// Stage-1 coverage received per (phase, sender).
  std::map<std::pair<std::size_t, sim::PeerId>, IntervalSet> coverage_;
  /// Stage-2 requests that arrived before my own stage-2 wait finished.
  std::vector<std::pair<sim::PeerId, crash1::Stage2Req>> pending_requests_;
};

}  // namespace asyncdr::proto
