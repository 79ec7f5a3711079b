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
// phase reached, each peer's owned bits as a SparseMask, the phase's
// distinct unknown-set snapshots, and the response chunks cut from them. A
// share (the bits of a requester's unknown set that one peer owns) is cut
// from the owner's own words: about 3 words for a phase-1 block,
// min(n/64, n/k) for a hashed phase. Peers that start a phase with equal
// unknown sets hold one snapshot, so a chunk is built once per (snapshot,
// owner) and every response carrying it shares it by pointer. A responder
// answers every request afresh: it checks Claim 1 and its own values
// against the kept chunk in one fused pass, one word operation per chunk
// word, builds its own chunk if the values differ, and wraps the chunks in
// a new body that the world's payload bank interns. A REQ2's missing list
// is built and hashed once and shared by every RESP2 to it; a RESP2
// carries a heard bit per listed peer and a chunk per heard one, so a "me
// neither" costs one bit and no work, and the layout looks a request's
// snapshot up once for all its heard peers (it keeps the last one found).
// A requester applies every chunk it hears, so the last write wins, and
// keeps its count of known bits as it learns them: the stage checks after
// every message read a counter instead of an n-bit popcount. It queries,
// journals and stores downloaded bits a run of consecutive indices at a
// time.
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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dr/peer.hpp"
#include "protocols/chunk.hpp"
#include "protocols/peer_set.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Payloads and assignment mechanics of Algorithm 2.
namespace crashm {

/// Canonical owner of bit b in phase r >= 2 of a k-peer instance.
sim::PeerId hashed_owner(std::size_t b, std::size_t r, std::size_t k);

/// A phase's unknown-set snapshot, interned per world (OwnerLayout::snapshot).
using Snapshot = std::shared_ptr<const BitVec>;
/// A response chunk, shared by every response that carries it.
using ChunkPtr = std::shared_ptr<const MaskChunk>;

/// Who owns which bit, in every phase of one (n, k) instance, and the
/// chunks cut from those shares. Per phase: each peer's owned bits as a
/// SparseMask, built in one pass over the n bits the first time a share of
/// that phase is asked for; phase 1 gives peer q the q-th block of
/// SegmentLayout(n, k), phase r >= 2 gives bit b to hashed_owner(b, r, k).
/// Also per phase: the distinct unknown sets peers started it with, and per
/// (snapshot, owner) the chunk of the owner's share. Everything is kept for
/// the world's lifetime, so a snapshot or chunk pointer never names two
/// contents. One layout serves a whole world (CrashMultiPeer binds it as
/// the world's shared object kSharedName).
class OwnerLayout {
 public:
  /// Name of the world's layout among its shared objects (World::shared).
  static constexpr const char* kSharedName = "proto.crash_multi.owners";

  OwnerLayout(std::size_t n, std::size_t k);

  /// The phase-r snapshot with `unknown`'s content (length n): the one
  /// already kept if an equal set was snapshotted in phase r, else a new one.
  [[nodiscard]] Snapshot snapshot(BitVec unknown, std::size_t r);

  /// The bits of `unknown` (length n) that `who` owns in phase r >= 1: the
  /// owner's words ANDed with the unknown set's, O(min(n/64, n/k)) words.
  [[nodiscard]] SparseMask share(const BitVec& unknown, std::size_t r,
                                 sim::PeerId who);

  /// `owner`'s share of `unknown`, a phase-r snapshot of this layout, with
  /// the values of `out`. Returns the kept chunk if its values agree with
  /// `out`; otherwise builds one from `out`, and keeps it if none was kept.
  /// Either way the chunk must lie within `known` (Claim 1), else an
  /// invariant violation with message `claim1` is thrown. A kept chunk runs
  /// both checks in one pass.
  [[nodiscard]] ChunkPtr chunk(const Snapshot& unknown, std::size_t r,
                               sim::PeerId owner, const BitVec& out,
                               const BitVec& known, const char* claim1);

  /// Chunks built so far, kept or not.
  [[nodiscard]] std::size_t chunks_built() const { return chunks_built_; }

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  struct Phase {
    /// [q]: q's bits; empty until a share of the phase is first asked.
    std::vector<SparseMask> owners;
    /// The phase's snapshots, by content hash.
    std::unordered_multimap<std::uint64_t, Snapshot> snapshots;
  };

  /// Per snapshot: its phase and, per owner, the kept chunk (or null).
  struct Chunks {
    std::size_t phase;
    std::vector<ChunkPtr> by_owner;
  };

  [[nodiscard]] Phase& phase(std::size_t r);

  std::size_t n_, k_;
  std::vector<Phase> phases_;  ///< [r - 1]
  std::unordered_map<const BitVec*, Chunks> chunks_;
  // A responder asks for all of a request's heard peers in turn, over one
  // snapshot: the last entry found (entries are never erased).
  const BitVec* last_snapshot_ = nullptr;
  Chunks* last_chunks_ = nullptr;
  std::size_t chunks_built_ = 0;
};

/// Request header charge: the index sets a request describes are
/// reconstructible from the requester's per-phase unheard lists (at most k
/// peer IDs per phase), so requests are charged O(k) header bits rather
/// than one bit per index — the paper's accounting.
inline std::size_t request_header_bits(std::size_t k) { return 64 + 16 * k; }

/// Stage-1 pull request: "send me your share of my unknown bits".
struct Req1 final : sim::Payload {
  std::size_t phase;
  Snapshot unknown;  ///< requester's unknown-bit mask at phase start

  Req1(std::size_t ph, Snapshot u) : phase(ph), unknown(std::move(u)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + request_header_bits(16);
  }
  [[nodiscard]] std::string type_name() const override { return "crashm::Req1"; }
  // Interning: at phase start every peer with the same unknown set builds
  // the same request (phase 1: everyone, before any bits resolve).
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(sim::payload_hash_mix(0x0101, phase),
                                 unknown->hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Req1>(other);
    return o != nullptr && o->phase == phase &&
           (o->unknown == unknown || *o->unknown == *unknown);
  }
};

/// Answer to Req1: the requested bit values.
struct Resp1 final : sim::Payload {
  std::size_t phase;
  ChunkPtr chunk;  ///< never null

  Resp1(std::size_t ph, ChunkPtr c) : phase(ph), chunk(std::move(c)) {}
  [[nodiscard]] std::size_t size_bits() const override { return 8 + chunk->size_bits(); }
  [[nodiscard]] std::string type_name() const override { return "crashm::Resp1"; }
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(sim::payload_hash_mix(0x0102, phase),
                                 chunk->hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Resp1>(other);
    return o != nullptr && o->phase == phase &&
           (o->chunk == chunk || *o->chunk == *chunk);
  }
};

/// The peers a stage-2 request names, with their hash computed once. The
/// request, its parked copies and every response to it share one list.
struct MissingList {
  std::vector<sim::PeerId> ids;
  std::uint64_t hash;

  explicit MissingList(std::vector<sim::PeerId> m);
  bool operator==(const MissingList& other) const { return ids == other.ids; }
};
using MissingPtr = std::shared_ptr<const MissingList>;

/// Stage-2 request: "these peers never answered me — did they answer you?"
struct Req2 final : sim::Payload {
  std::size_t phase;
  MissingPtr missing;  ///< never null
  Snapshot unknown;    ///< requester's unknown-bit mask at phase start

  Req2(std::size_t ph, MissingPtr m, Snapshot u)
      : phase(ph), missing(std::move(m)), unknown(std::move(u)) {}
  [[nodiscard]] std::size_t size_bits() const override {
    return 8 + request_header_bits(16) + 16 * missing->ids.size();
  }
  [[nodiscard]] std::string type_name() const override { return "crashm::Req2"; }
  // Interning: peers that heard the same stage-1 quorum name the same
  // missing list over the same unknown snapshot.
  [[nodiscard]] std::uint64_t content_hash() const override {
    return sim::payload_hash_mix(
               sim::payload_hash_mix(sim::payload_hash_mix(0x0103, phase),
                                     missing->hash),
               unknown->hash()) |
           1;
  }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Req2>(other);
    return o != nullptr && o->phase == phase &&
           (o->missing == missing || *o->missing == *missing) &&
           (o->unknown == unknown || *o->unknown == *unknown);
  }
};

/// Answer to Req2: per listed peer, either its bits or "me neither". Entry
/// j answers missing->ids[j]: bit j of `heard` is set iff the responder
/// heard that peer, and the heard entries' chunks follow in list order.
/// Every listed id names a peer (< k).
struct Resp2 final : sim::Payload {
  const std::size_t phase;
  const MissingPtr missing;           ///< never null
  const BitVec heard;                 ///< one bit per listed peer
  const std::vector<ChunkPtr> chunks;  ///< one per heard entry, never null

  // The network asks for a response's size and hash on every send and
  // charge: both are computed once here, at no cost per "me neither".
  Resp2(std::size_t ph, MissingPtr m, BitVec h, std::vector<ChunkPtr> c);
  [[nodiscard]] std::size_t size_bits() const override { return bits_; }
  [[nodiscard]] std::string type_name() const override { return "crashm::Resp2"; }
  [[nodiscard]] std::uint64_t content_hash() const override { return hash_; }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override;

 private:
  std::size_t bits_ = 0;
  std::uint64_t hash_ = 0;
};

/// The Claim 1 message of a RESP2 responder's chunk checks.
inline constexpr const char* kClaim1Req2 =
    "Claim 1 violated: heard the absent peer but lack its bits";

/// The answer to `req` from a responder holding `out`/`known` that heard
/// `heard` in the request's phase (null: it heard nobody then): per listed
/// peer below k, that peer's chunk if heard (with the layout's checks),
/// else "me neither". Listed ids >= k get no entry and no charge.
std::shared_ptr<const Resp2> answer(OwnerLayout& layout, const Req2& req,
                                    const PeerSet* heard, const BitVec& out,
                                    const BitVec& known);

/// Terminating push of the full output array (Claim 2's rescue).
struct Full final : sim::Payload {
  const BitVec all;

  // The bank asks for the hash on intern and on every charge: the n-bit
  // array is hashed once, here.
  explicit Full(BitVec a)
      : all(std::move(a)),
        hash_(sim::payload_hash_mix(0x0105, all.hash()) | 1) {}
  [[nodiscard]] std::size_t size_bits() const override { return 8 + all.size(); }
  [[nodiscard]] std::string type_name() const override { return "crashm::Full"; }
  // THE interning win: every completing peer pushes the identical full
  // array, so a k-wide rescue wave keeps one n-bit body, not k of them.
  [[nodiscard]] std::uint64_t content_hash() const override { return hash_; }
  [[nodiscard]] bool content_equals(const sim::Payload& other) const override {
    const auto* o = sim::payload_as<Full>(other);
    return o != nullptr && o->all == all;
  }

 private:
  std::uint64_t hash_;
};

}  // namespace crashm

/// A nonfaulty peer of Algorithm 2.
class CrashMultiPeer final : public dr::Peer {
 public:
  struct Options {
    /// Thm 2.13 optimization: release the stage-3 wait as soon as late
    /// RESP1s cover every pending peer. Ablated in bench_crash.
    bool fast_cancel = true;
  };

  CrashMultiPeer();
  explicit CrashMultiPeer(Options opts);

  void on_start() override;
  /// Crash-recovery resume: seeds out_/known_ from the replayed journal,
  /// queries only the still-unknown bits, then pushes the FULL rescue and
  /// terminates (the other peers may all be done and unable to help).
  void on_restart(const dr::RecoveryState& state) override;
  [[nodiscard]] std::string status() const override;

  /// Phases entered before terminating (diagnostics for benches/tests).
  [[nodiscard]] std::size_t phases_run() const { return phase_; }
  /// Bits known so far, as the mask and as the count kept beside it
  /// (diagnostics for tests: the count must equal the mask's popcount).
  [[nodiscard]] const BitVec& known() const { return known_; }
  [[nodiscard]] std::size_t known_count() const { return known_count_; }

  /// Adds the working set (bit masks, missing list, heard sets, parked
  /// requests) to the base output accounting.
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

  /// Queries, journals and then stores `runs` (ascending, disjoint runs of
  /// unknown bits): the protocol's one download funnel. Returns false iff a
  /// journal crash-point sentinel killed this peer mid-append — the caller
  /// must stop immediately.
  bool download(const std::vector<Interval>& runs);

  /// Applies a chunk heard in a response: its values overwrite out_.
  void learn(const MaskChunk& chunk);

  /// The world's owner layout, bound on first use.
  [[nodiscard]] crashm::OwnerLayout& layout();

  Options opts_;
  Progress progress_ = Progress::kIdle;
  std::size_t phase_ = 0;

  BitVec out_;
  BitVec known_;  // mask
  std::size_t known_count_ = 0;  // known_.popcount(), kept as bits arrive

  crashm::Snapshot phase_unknown_;  // unknown mask at current phase start
  std::vector<sim::PeerId> missing_;  // D of the current phase
  std::size_t resp2s_counted_ = 0;  // toward the stage-3 quorum

  bool full_sent_ = false;

  /// A request arriving before this peer can answer it (stage ordering).
  struct Deferred {
    sim::PeerId from;
    std::optional<crashm::Req1> req1;
    std::optional<crashm::Req2> req2;
  };
  std::vector<PeerSet> heard_;      // C_r per phase (index r-1)
  std::vector<Deferred> deferred_;  // requests parked until eligible

  crashm::OwnerLayout* layout_ = nullptr;
};

}  // namespace asyncdr::proto
