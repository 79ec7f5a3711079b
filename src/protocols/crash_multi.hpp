// Algorithm 2 of the paper: deterministic asynchronous Download tolerating
// t = floor(beta*k) crash faults for ANY beta < 1, with optimal query
// complexity O(n / ((1-beta) k)) (Theorems 2.13 / Lemma 2.11).
//
// Execution proceeds in phases of three stages:
//   stage 1 — query my share of my unknown bits and ask every other peer
//             for its share (pull request REQ1);
//   stage 2 — wait for complete answers (RESP1) from >= (1-beta)k peers
//             (counting myself); broadcast REQ2 naming the unheard peers;
//   stage 3 — wait for >= (1-beta)k REQ2 responses (counting my own
//             implicit "me neither"); learn what arrived; the still-unknown
//             bits carry into the next phase under a fresh assignment.
//
// Assignment rule. Phase 1 assigns peer q the q-th contiguous block. For
// phase r >= 2, bit b is owned by peer hash(b, r) mod k — a CANONICAL
// pseudorandom rule every peer evaluates identically. This deviates from
// the paper's Line 20 (each peer re-splits its missing peers' sets evenly):
// the local-splitting rule needs all reassigning peers to hold identical
// per-missing-peer sets, which fails once responses resolve different
// subsets at different peers (positions misalign and two peers route the
// same unknown bit to different owners). The canonical rule makes the
// paper's Claim 1 — any two peers agree on every bit's owner — structural,
// keeps the per-phase load balanced (u/k +- O(sqrt(u/k log k)) by standard
// balls-in-bins concentration), and, because the hash decorrelates phases,
// shrinks the unknown set by a ~beta factor per phase against ANY crash
// set. bounds::crash_multi_q() accounts for the concentration slack.
//
// Per-message cost. Each world keeps one crashm::OwnerLayout: for every
// phase reached, each peer's owned bits as a SparseMask. A share (the bits
// of a requester's unknown set that one peer owns) is cut from the owner's
// own words: about 3 words for a phase-1 block, min(n/64, n/k) for a hashed
// phase. Building, checking (Claim 1), packing and hashing a response then
// cost O(owner words), not O(n).
//
// Termination: once the unknown set is at most max(ceil(n/k), 2k) bits (or
// a phase cap is hit), the peer queries the remainder directly, pushes its
// full output to everyone (the FULL rescue of Claim 2 that keeps slower
// peers from waiting on terminated ones), and terminates.
//
// The Theorem 2.13 "fast cancel" refinement is on by default: a peer stuck
// in stage 3 is released as soon as late RESP1s cover everything it was
// waiting for, instead of having to collect the full response quorum.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "dr/arena.hpp"
#include "dr/peer.hpp"
#include "protocols/chunk.hpp"
#include "protocols/peer_set.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Payloads and assignment mechanics of Algorithm 2.
namespace crashm {

/// Canonical owner of bit b in phase r >= 2 of a k-peer instance.
sim::PeerId hashed_owner(std::size_t b, std::size_t r, std::size_t k);

/// Who owns which bit, in every phase of one (n, k) instance: per phase,
/// each peer's owned bits as a SparseMask. Phase 1 gives peer q the q-th
/// block of SegmentLayout(n, k); phase r >= 2 gives bit b to
/// hashed_owner(b, r, k). A phase's masks are built in one pass over the n
/// bits the first time a share of that phase is asked for. One layout
/// serves a whole world (CrashMultiPeer binds it in the world's arena).
class OwnerLayout {
 public:
  OwnerLayout(std::size_t n, std::size_t k);

  /// The bits of `unknown` (length n) that `who` owns in phase r >= 1: the
  /// owner's words ANDed with the unknown set's, O(min(n/64, n/k)) words.
  [[nodiscard]] SparseMask share(const BitVec& unknown, std::size_t r,
                                 sim::PeerId who);

 private:
  std::size_t n_, k_;
  /// [r - 1][q]: q's bits in phase r; empty until phase r is first asked.
  std::vector<std::vector<SparseMask>> phases_;
};

/// Request header charge: the index sets a request describes are
/// reconstructible from the requester's per-phase unheard lists (at most k
/// peer IDs per phase), so requests are charged O(k) header bits rather
/// than one bit per index — the paper's accounting.
inline std::size_t request_header_bits(std::size_t k) { return 64 + 16 * k; }

/// Stage-1 pull request: "send me your share of my unknown bits".
struct Req1 final : sim::Payload {
  std::size_t phase;
  BitVec unknown;  ///< requester's unknown-bit mask at phase start

  Req1(std::size_t ph, BitVec u) : phase(ph), unknown(std::move(u)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + request_header_bits(16);
  }
  [[nodiscard]] std::string type_name() const override { return "crashm::Req1"; }
  // Interning: at phase start every peer with the same unknown set builds
  // the same request (phase 1: everyone, before any bits resolve).
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(sim::payload_hash_mix(0x0101, phase),
                                 unknown.hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Req1>(other);
    return o != nullptr && o->phase == phase && o->unknown == unknown;
  }
};

/// Answer to Req1: the requested bit values.
struct Resp1 final : sim::Payload {
  std::size_t phase;
  MaskChunk chunk;

  Resp1(std::size_t ph, MaskChunk c) : phase(ph), chunk(std::move(c)) {}
  [[nodiscard]] std::size_t size_bits() const override { return 8 + chunk.size_bits(); }
  [[nodiscard]] std::string type_name() const override { return "crashm::Resp1"; }
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(sim::payload_hash_mix(0x0102, phase),
                                 chunk.hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Resp1>(other);
    return o != nullptr && o->phase == phase && o->chunk == chunk;
  }
};

/// Stage-2 request: "these peers never answered me — did they answer you?"
struct Req2 final : sim::Payload {
  std::size_t phase;
  std::vector<sim::PeerId> missing;
  BitVec unknown;  ///< requester's unknown-bit mask at phase start

  Req2(std::size_t ph, std::vector<sim::PeerId> m, BitVec u)
      : phase(ph), missing(std::move(m)), unknown(std::move(u)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + request_header_bits(16) + 16 * missing.size();
  }
  [[nodiscard]] std::string type_name() const override { return "crashm::Req2"; }
  // Interning: peers that heard the same stage-1 quorum name the same
  // missing list over the same unknown snapshot.
  [[nodiscard]] std::uint64_t content_hash() const override {
    std::uint64_t h = sim::payload_hash_mix(0x0103, phase);
    h = sim::payload_hash_mix(h, missing.size());
    for (sim::PeerId m : missing) h = sim::payload_hash_mix(h, m);
    return sim::payload_hash_mix(h, unknown.hash()) | 1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Req2>(other);
    return o != nullptr && o->phase == phase && o->missing == missing &&
           o->unknown == unknown;
  }
};

/// Answer to Req2: per missing peer, either its bits or "me neither".
struct Resp2 final : sim::Payload {
  std::size_t phase;
  std::vector<std::pair<sim::PeerId, std::optional<MaskChunk>>> answers;

  Resp2(std::size_t ph,
        std::vector<std::pair<sim::PeerId, std::optional<MaskChunk>>> a)
      : phase(ph), answers(std::move(a)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    std::size_t bits = 8;
    for (const auto& [peer, chunk] : answers) {
      bits += 17;  // peer id + me-neither flag
      if (chunk) bits += chunk->size_bits();
    }
    return bits;
  }
  [[nodiscard]] std::string type_name() const override { return "crashm::Resp2"; }
  [[nodiscard]] std::uint64_t content_hash() const override {
    std::uint64_t h = sim::payload_hash_mix(0x0104, phase);
    h = sim::payload_hash_mix(h, answers.size());
    for (const auto& [peer, chunk] : answers) {
      h = sim::payload_hash_mix(h, peer);
      h = sim::payload_hash_mix(h, chunk ? chunk->hash() : 0);
    }
    return h | 1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Resp2>(other);
    return o != nullptr && o->phase == phase && o->answers == answers;
  }
};

/// Terminating push of the full output array (Claim 2's rescue).
struct Full final : sim::Payload {
  BitVec all;

  explicit Full(BitVec a) : all(std::move(a)) {}
  [[nodiscard]] std::size_t size_bits() const override { return 8 + all.size(); }
  [[nodiscard]] std::string type_name() const override { return "crashm::Full"; }
  // THE interning win: every completing peer pushes the identical full
  // array, so a k-wide rescue wave keeps one n-bit body, not k of them.
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(0x0105, all.hash()) | 1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Full>(other);
    return o != nullptr && o->all == all;
  }
};

}  // namespace crashm

/// A nonfaulty peer of Algorithm 2.
class CrashMultiPeer final : public dr::Peer {
 public:
  struct Options {
    /// Thm 2.13 optimization: release the stage-3 wait as soon as late
    /// RESP1s cover every pending peer. Ablated in bench_crash.
    bool fast_cancel = true;
    /// Stop phasing and query the rest directly once the unknown count is
    /// at most this. 0 = auto: max(ceil(n/k), 2k).
    std::size_t direct_threshold = 0;
    /// Hard cap on phases. 0 = auto from beta.
    std::size_t max_phases = 0;
  };

  CrashMultiPeer();
  explicit CrashMultiPeer(Options opts);

  /// A request arriving before this peer can answer it (stage ordering).
  struct Deferred {
    sim::PeerId from;
    std::optional<crashm::Req1> req1;
    std::optional<crashm::Req2> req2;
  };

  /// Per-peer protocol working set, kept as a row of the world-owned
  /// arena column "proto.crash_multi" (flyweight substrate): the peer
  /// object holds only a cached row pointer. World::do_restart resets the
  /// row before the fresh incarnation binds, so scratch state never leaks
  /// across incarnations.
  struct Scratch {
    std::vector<PeerSet> heard;     ///< C_r per phase (index r-1)
    std::vector<Deferred> deferred; ///< requests parked until eligible

    /// Deep heap bytes per row (the arena column charges these to
    /// dr.peer.state; Peer::memory_bytes deliberately excludes them).
    static std::uint64_t row_bytes(const Scratch& s);
  };

  void on_start() override;
  /// Crash-recovery resume: seeds out_/known_ from the replayed journal,
  /// queries only the still-unknown bits, then pushes the FULL rescue and
  /// terminates (the other peers may all be done and unable to help).
  void on_restart(const dr::RecoveryState& state) override;
  [[nodiscard]] std::string status() const override;

  /// Phases entered before terminating (diagnostics for benches/tests).
  [[nodiscard]] std::size_t phases_run() const { return phase_; }

  /// Adds the peer-resident working set (bit masks, missing list) to the
  /// base output accounting. The arena-resident scratch (heard sets,
  /// deferred requests) is charged by the arena column itself — counting
  /// it here too would double-charge dr.peer.state.
  [[nodiscard]] std::size_t memory_bytes() const override;

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  enum class Progress { kIdle, kWait1, kWait2, kDone };

  [[nodiscard]] std::size_t quorum() const;  // (1-beta)k = k - t
  [[nodiscard]] std::size_t direct_threshold() const;
  [[nodiscard]] std::size_t max_phases() const;

  void ensure_init();
  void start_phase(std::size_t r);
  void try_advance();
  void advance_phase();
  void complete_now();
  void process_deferred();

  void handle_req1(sim::PeerId from, const crashm::Req1& req);
  void handle_req2(sim::PeerId from, const crashm::Req2& req);
  [[nodiscard]] bool req1_eligible(const crashm::Req1& req) const;
  [[nodiscard]] bool req2_eligible(const crashm::Req2& req) const;

  /// Queries (and journals) the unknown bits of `mask`. Returns false iff a
  /// journal crash-point sentinel killed this peer mid-append — the caller
  /// must stop immediately.
  bool query_mask(const SparseMask& mask);

  /// The world's owner layout, bound on first use (like scratch()).
  [[nodiscard]] crashm::OwnerLayout& layout();

  Options opts_;
  Progress progress_ = Progress::kIdle;
  std::size_t phase_ = 0;

  BitVec out_;
  BitVec known_;  // mask

  BitVec phase_unknown_;  // unknown mask snapshot at current phase start
  std::vector<sim::PeerId> missing_;  // D of the current phase
  std::size_t resp2_count_ = 0;

  bool full_sent_ = false;

  /// Binds (on first use) and returns this peer's arena scratch row. Row
  /// storage is stable for the world's lifetime, so the cached pointer
  /// never dangles; a fresh incarnation starts unbound and re-binds.
  [[nodiscard]] Scratch& scratch();
  /// The row if already bound, else nullptr (const paths — status,
  /// accounting — treat an unbound row as empty).
  [[nodiscard]] const Scratch* scratch_if_bound() const { return row_; }

  Scratch* row_ = nullptr;
  crashm::OwnerLayout* layout_ = nullptr;
};

}  // namespace asyncdr::proto
