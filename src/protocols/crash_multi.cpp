#include "protocols/crash_multi.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/check.hpp"
#include "dr/world.hpp"
#include "obs/mem.hpp"
#include "protocols/segments.hpp"

namespace asyncdr::proto {

using crashm::ChunkPtr;
using crashm::Full;
using crashm::MissingList;
using crashm::Req1;
using crashm::Req2;
using crashm::Resp1;
using crashm::Resp2;

namespace crashm {

sim::PeerId hashed_owner(std::size_t b, std::size_t r, std::size_t k) {
  // SplitMix64-style finalizer over (b, r); any fixed high-quality mix
  // works — it only has to be the SAME function at every peer and
  // decorrelated across phases.
  std::uint64_t z = (static_cast<std::uint64_t>(b) + 0x9e3779b97f4a7c15ull *
                                                         static_cast<std::uint64_t>(r));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<sim::PeerId>(z % k);
}

OwnerLayout::OwnerLayout(std::size_t n, std::size_t k) : n_(n), k_(k) {}

OwnerLayout::Phase& OwnerLayout::phase(std::size_t r) {
  ASYNCDR_EXPECTS(r >= 1);
  if (phases_.size() < r) phases_.resize(r);
  return phases_[r - 1];
}

Snapshot OwnerLayout::snapshot(BitVec unknown, std::size_t r) {
  ASYNCDR_EXPECTS(unknown.size() == n_);
  auto& snapshots = phase(r).snapshots;
  const std::uint64_t hash = unknown.hash();
  const auto [first, last] = snapshots.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (*it->second == unknown) return it->second;
  }
  auto kept = std::make_shared<const BitVec>(std::move(unknown));
  snapshots.emplace(hash, kept);
  chunks_.emplace(kept.get(), Chunks{r, std::vector<ChunkPtr>(k_)});
  return kept;
}

SparseMask OwnerLayout::share(const BitVec& unknown, std::size_t r,
                              sim::PeerId who) {
  ASYNCDR_EXPECTS(unknown.size() == n_ && r >= 1 && who < k_);
  std::vector<SparseMask>& owners = phase(r).owners;
  if (owners.empty()) {
    if (r == 1) {
      const SegmentLayout blocks(n_, k_);
      owners.reserve(k_);
      for (sim::PeerId q = 0; q < k_; ++q) {
        const Interval block = blocks.bounds(q);
        owners.push_back(SparseMask::range(n_, block.lo, block.hi));
      }
    } else {
      owners.assign(k_, SparseMask(n_));
      for (std::size_t b = 0; b < n_; ++b) {
        owners[hashed_owner(b, r, k_)].append(b);
      }
    }
  }
  return owners[who].intersect(unknown);
}

ChunkPtr OwnerLayout::chunk(const Snapshot& unknown, std::size_t r,
                            sim::PeerId owner, const BitVec& out,
                            const BitVec& known, const char* claim1) {
  if (unknown.get() != last_snapshot_) {
    const auto it = chunks_.find(unknown.get());
    ASYNCDR_EXPECTS_MSG(it != chunks_.end(),
                        "not a snapshot of this layout's phase");
    last_snapshot_ = unknown.get();
    last_chunks_ = &it->second;
  }
  ASYNCDR_EXPECTS_MSG(last_chunks_->phase == r,
                      "not a snapshot of this layout's phase");
  ASYNCDR_EXPECTS(owner < k_ && out.size() == n_ && known.size() == n_);
  ChunkPtr& kept = last_chunks_->by_owner[owner];
  if (kept != nullptr) {
    const MaskChunk::Checks checks = kept->check(out, known);
    ASYNCDR_INVARIANT_MSG(checks.held, claim1);
    if (checks.agrees) return kept;
  }
  // The first call for this (snapshot, owner), or a responder whose values
  // differ from the kept chunk's (a mutating source): it answers with its
  // own, as it would without the layout.
  auto chunk = std::make_shared<const MaskChunk>(
      MaskChunk::extract(out, share(*unknown, r, owner)));
  ++chunks_built_;
  ASYNCDR_INVARIANT_MSG(chunk->is_subset_of(known), claim1);
  if (kept == nullptr) kept = chunk;
  return chunk;
}

MissingList::MissingList(std::vector<sim::PeerId> m) : ids(std::move(m)) {
  hash = sim::payload_hash_mix(0x0106, ids.size());
  for (sim::PeerId id : ids) hash = sim::payload_hash_mix(hash, id);
}

Resp2::Resp2(std::size_t ph, MissingPtr m, BitVec h, std::vector<ChunkPtr> c)
    : phase(ph), missing(std::move(m)), heard(std::move(h)),
      chunks(std::move(c)) {
  ASYNCDR_EXPECTS(missing != nullptr && heard.size() == missing->ids.size() &&
                  chunks.size() == heard.popcount());
  bits_ = 8 + 17 * missing->ids.size();  // per entry: peer id + heard flag
  hash_ = sim::payload_hash_mix(sim::payload_hash_mix(0x0104, phase),
                                missing->hash);
  hash_ = sim::payload_hash_mix(hash_, heard.hash());
  for (const ChunkPtr& chunk : chunks) {
    bits_ += chunk->size_bits();
    hash_ = sim::payload_hash_mix(hash_, chunk->hash());
  }
  hash_ |= 1;
}

bool Resp2::content_equals(const sim::Payload& other) const {
  const auto* o = sim::payload_as<Resp2>(other);
  return o != nullptr && o->phase == phase &&
         (o->missing == missing || *o->missing == *missing) &&
         o->heard == heard &&
         std::equal(chunks.begin(), chunks.end(), o->chunks.begin(),
                    o->chunks.end(), [](const ChunkPtr& a, const ChunkPtr& b) {
                      return a == b || *a == *b;
                    });
}

std::shared_ptr<const Resp2> answer(OwnerLayout& layout, const Req2& req,
                                    const PeerSet* heard, const BitVec& out,
                                    const BitVec& known) {
  const std::size_t k = layout.k();
  MissingPtr list = req.missing;
  const auto& ids = list->ids;
  if (std::any_of(ids.begin(), ids.end(),
                  [k](sim::PeerId id) { return id >= k; })) {
    // Ids that name no peer get no entry, so the response lists only the
    // others. Honest requesters never name one.
    std::vector<sim::PeerId> peers;
    std::copy_if(ids.begin(), ids.end(), std::back_inserter(peers),
                 [k](sim::PeerId id) { return id < k; });
    list = std::make_shared<const MissingList>(std::move(peers));
  }
  BitVec heard_bits(list->ids.size());
  std::vector<ChunkPtr> chunks;
  if (heard != nullptr) {
    for (std::size_t j = 0; j < list->ids.size(); ++j) {
      const sim::PeerId absent = list->ids[j];
      if (!heard->contains(absent)) continue;  // "me neither"
      if (chunks.empty()) chunks.reserve(list->ids.size() - j);
      heard_bits.set(j, true);
      chunks.push_back(layout.chunk(req.unknown, req.phase, absent, out,
                                    known, kClaim1Req2));
    }
  }
  return std::make_shared<const Resp2>(req.phase, std::move(list),
                                       std::move(heard_bits),
                                       std::move(chunks));
}

}  // namespace crashm

CrashMultiPeer::CrashMultiPeer() : CrashMultiPeer(Options{}) {}

CrashMultiPeer::CrashMultiPeer(Options opts) : opts_(opts) {}

std::size_t CrashMultiPeer::quorum() const {
  return world().config().min_honest();
}

std::size_t CrashMultiPeer::direct_threshold() const {
  return std::max<std::size_t>((n() + k() - 1) / k(), 2 * k());
}

std::size_t CrashMultiPeer::max_phases() const {
  const std::size_t t = world().config().max_faulty();
  if (t == 0) return 1;
  // Unknown bits shrink by ~t/k per phase; log_{k/t}(n) phases reach the
  // direct-query threshold. +3 slack for rounding stalls.
  const double ratio = static_cast<double>(k()) / static_cast<double>(t);
  const double phases =
      std::log(static_cast<double>(n()) + 2.0) / std::log(std::max(ratio, 1.01));
  return std::min<std::size_t>(200, static_cast<std::size_t>(phases) + 3);
}

crashm::OwnerLayout& CrashMultiPeer::layout() {
  if (layout_ == nullptr) {
    layout_ = &world().shared<crashm::OwnerLayout>(
        crashm::OwnerLayout::kSharedName,
        [this] { return crashm::OwnerLayout(n(), k()); });
  }
  return *layout_;
}

void CrashMultiPeer::on_start() {
  ensure_init();
  start_phase(1);
}

void CrashMultiPeer::on_restart(const dr::RecoveryState& state) {
  ensure_init();
  // Reconcile the CRC-verified journal into protocol state: every replayed
  // interval was downloaded (and persisted) by a previous incarnation.
  const dr::JournalReplay& journal = state.journal;
  for (const Interval& iv : journal.intervals.intervals()) {
    out_.copy_range(iv.lo, journal.bits, iv.lo, iv.length());
    known_.fill(iv.lo, iv.hi, true);
  }
  known_count_ = known_.popcount();
  credit_queries_saved(known_count_);
  begin_phase("recovery");
  // The other peers may all have terminated while this one was down (their
  // FULL rescue was dropped at the crashed port), so recovery must not wait
  // on anyone: query exactly the bits the journal does not cover, push the
  // FULL rescue, and terminate.
  if (!download(known_.clear_runs())) return;  // killed at a sentinel again
  progress_ = Progress::kDone;
  if (!full_sent_) {
    full_sent_ = true;
    broadcast(std::make_shared<Full>(out_));
  }
  finish(out_);
}

std::size_t CrashMultiPeer::memory_bytes() const {
  using obs::modeled_alloc_bytes;
  std::uint64_t bytes = dr::Peer::memory_bytes();
  bytes += modeled_alloc_bytes(out_.memory_bytes());
  bytes += modeled_alloc_bytes(known_.memory_bytes());
  if (phase_unknown_ != nullptr) {
    bytes += modeled_alloc_bytes(phase_unknown_->memory_bytes());
  }
  bytes += modeled_alloc_bytes(missing_.capacity() * sizeof(sim::PeerId));
  bytes += modeled_alloc_bytes(heard_.capacity() * sizeof(PeerSet));
  for (const PeerSet& c : heard_) {
    if (c.memory_bytes() > 0) bytes += modeled_alloc_bytes(c.memory_bytes());
  }
  bytes += modeled_alloc_bytes(deferred_.capacity() * sizeof(Deferred));
  // A parked request shares the world's snapshot, but is charged for its
  // bytes as if it held its own copy (the model the mem goldens pin).
  for (const Deferred& d : deferred_) {
    if (d.req1.has_value()) {
      bytes += modeled_alloc_bytes(d.req1->unknown->memory_bytes());
    }
    if (d.req2.has_value()) {
      bytes += modeled_alloc_bytes(d.req2->unknown->memory_bytes());
      bytes += modeled_alloc_bytes(d.req2->missing->ids.capacity() *
                                   sizeof(sim::PeerId));
    }
  }
  return static_cast<std::size_t>(bytes);
}

std::string CrashMultiPeer::status() const {
  if (terminated()) return "terminated";
  std::ostringstream os;
  os << "phase " << phase_ << ", ";
  switch (progress_) {
    case Progress::kIdle: os << "idle (not started)"; break;
    case Progress::kWait1: {
      const std::size_t heard_count =
          (phase_ >= 1 && phase_ <= heard_.size()) ? heard_[phase_ - 1].size()
                                                   : 0;
      os << "stage 2: waiting for RESP1 quorum (" << heard_count << "/"
         << quorum() << " heard)";
      break;
    }
    case Progress::kWait2:
      os << "stage 3: waiting for RESP2 quorum (" << resp2s_counted_ << "/"
         << quorum() << ", " << missing_.size() << " peers missing)";
      break;
    case Progress::kDone: os << "done stage reached"; break;
  }
  os << "; " << known_count_ << "/" << n() << " bits known";
  return os.str();
}

void CrashMultiPeer::ensure_init() {
  // Messages may arrive before this peer's (adversary-chosen) start time.
  if (out_.size() != n()) {
    // asyncdr-lint: allow(DR014) lazy allocation of empty state, not
    //   recovered-data mutation: no downloaded bit exists yet, and
    //   on_restart runs this before replaying the journal into it.
    out_ = BitVec(n());
    known_ = BitVec(n());  // asyncdr-lint: allow(DR014) same rationale.
    known_count_ = 0;      // asyncdr-lint: allow(DR014) same rationale.
  }
}

void CrashMultiPeer::start_phase(std::size_t r) {
  phase_ = r;
  begin_phase("round-" + std::to_string(r));
  if (!journal_checkpoint("round", r)) return;  // killed at the sentinel
  const std::size_t unknown_count = n() - known_count_;
  if (unknown_count <= direct_threshold() || r > max_phases()) {
    complete_now();
    return;
  }

  // Snapshot the unknown set: the phase's assignment is defined on it.
  BitVec all_unknown(n(), true);
  all_unknown.andnot_with(known_);
  phase_unknown_ = layout().snapshot(std::move(all_unknown), r);

  // Stage 1: query my own share and pull everyone else's.
  const SparseMask mine = layout().share(*phase_unknown_, r, id());
  if (!download(mine.runs_outside(known_))) return;  // killed mid-append
  if (heard_.size() < r) heard_.resize(r);
  heard_[r - 1].insert(id(), k());
  missing_.clear();
  resp2s_counted_ = 0;
  progress_ = Progress::kWait1;
  broadcast(std::make_shared<Req1>(r, phase_unknown_));
  process_deferred();
  try_advance();
}

bool CrashMultiPeer::download(const std::vector<Interval>& runs) {
  if (runs.empty()) return true;
  const BitVec values = query_runs(runs);
  // Single query funnel = single journal funnel: everything this protocol
  // ever downloads is persisted here, appended BEFORE the volatile state
  // changes so no incarnation can ever hold bits the journal missed.
  if (!journal_runs(runs, values)) return false;  // killed mid-append
  std::size_t at = 0;
  for (const Interval& run : runs) {
    out_.copy_range(run.lo, values, at, run.length());
    known_.fill(run.lo, run.hi, true);
    at += run.length();
  }
  known_count_ += values.size();
  return true;
}

void CrashMultiPeer::learn(const MaskChunk& chunk) {
  // asyncdr-lint: allow(DR014) bits heard from other peers are not
  //   downloads: the journal logs only what this peer queried, and a
  //   revived incarnation re-queries what it had only heard, by design.
  known_count_ += chunk.apply_to(out_, known_);
}

void CrashMultiPeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  ensure_init();
  if (const auto* full = sim::payload_as<Full>(payload)) {
    // Claim 2's rescue: adopt, re-push once (so peers waiting on *me* are
    // rescued too), terminate.
    if (full->all.size() != n()) return;
    // asyncdr-lint: allow(DR014) rescue adoption is atomic with
    //   termination: the sim crashes only at journal sentinels and none
    //   lies between here and finish() (complete_now's query set is empty),
    //   so no future incarnation can observe these deliberately
    //   unpersisted bits.
    out_ = full->all;
    known_ = BitVec(n(), true);  // asyncdr-lint: allow(DR014) same rationale.
    known_count_ = n();          // asyncdr-lint: allow(DR014) same rationale.
    complete_now();
    return;
  }
  if (const auto* resp1 = sim::payload_as<Resp1>(payload)) {
    if (resp1->chunk->size() == n()) {
      // A responder answers with its own share.
      learn(*resp1->chunk);
      if (heard_.size() < resp1->phase) heard_.resize(resp1->phase);
      heard_[resp1->phase - 1].insert(from, k());
    }
    try_advance();
    return;
  }
  if (const auto* resp2 = sim::payload_as<Resp2>(payload)) {
    // One chunk per heard entry, in list order.
    for (const ChunkPtr& chunk : resp2->chunks) {
      if (chunk->size() == n()) learn(*chunk);
    }
    if (resp2->phase == phase_ && progress_ == Progress::kWait2) {
      ++resp2s_counted_;
    }
    try_advance();
    return;
  }
  if (const auto* req1 = sim::payload_as<Req1>(payload)) {
    if (req1->unknown == nullptr || req1->unknown->size() != n()) return;
    if (req1_eligible(*req1)) {
      handle_req1(from, *req1);
    } else {
      deferred_.push_back(Deferred{from, *req1, std::nullopt});
    }
    return;
  }
  if (const auto* req2 = sim::payload_as<Req2>(payload)) {
    if (req2->unknown == nullptr || req2->unknown->size() != n()) return;
    if (req2_eligible(*req2)) {
      handle_req2(from, *req2);
    } else {
      deferred_.push_back(Deferred{from, std::nullopt, *req2});
    }
    return;
  }
}

bool CrashMultiPeer::req1_eligible(const Req1& req) const {
  // Answerable once I have done my own stage-1 queries of that phase.
  return phase_ > req.phase ||
         (phase_ == req.phase && progress_ != Progress::kIdle);
}

bool CrashMultiPeer::req2_eligible(const Req2& req) const {
  // Answerable once I reached stage 3 of that phase.
  return phase_ > req.phase ||
         (phase_ == req.phase && progress_ == Progress::kWait2);
}

void CrashMultiPeer::handle_req1(sim::PeerId from, const Req1& req) {
  // Claim 1 (structural under the canonical assignment): every bit the
  // requester assigned to me and still lacks is a bit I either knew
  // already or queried in my own stage 1 of that phase.
  ChunkPtr mine =
      layout().chunk(req.unknown, req.phase, id(), out_, known_,
                     "Claim 1 violated: asked for a bit I don't know");
  send(from, std::make_shared<Resp1>(req.phase, std::move(mine)));
}

void CrashMultiPeer::handle_req2(sim::PeerId from, const Req2& req) {
  const PeerSet* heard =
      heard_.size() >= req.phase ? &heard_[req.phase - 1] : nullptr;
  send(from, crashm::answer(layout(), req, heard, out_, known_));
}

void CrashMultiPeer::try_advance() {
  if (progress_ == Progress::kWait1) {
    // Thm 2.13 refinement: stop waiting the moment late answers already
    // cover everything. The base protocol (fast_cancel off) waits strictly
    // for its quorum, as Algorithm 2 is written.
    if (opts_.fast_cancel && known_count_ == n()) {
      complete_now();
      return;
    }
    if (heard_[phase_ - 1].size() >= quorum()) {
      // Stage 2 -> 3: name the unheard peers.
      missing_.clear();
      for (sim::PeerId q = 0; q < k(); ++q) {
        if (!heard_[phase_ - 1].contains(q)) missing_.push_back(q);
      }
      // asyncdr-lint: allow(DR014) intra-round stage cursor, volatile by
      //   design: recovery never resumes mid-round (on_restart completes
      //   directly from journaled bits), so no append orders this.
      progress_ = Progress::kWait2;
      resp2s_counted_ = 1;  // my own implicit all-"me neither" response
      if (!missing_.empty()) {
        broadcast(std::make_shared<Req2>(
            phase_, std::make_shared<const MissingList>(missing_),
            phase_unknown_));
      }
      process_deferred();
      try_advance();
    }
    return;
  }

  if (progress_ == Progress::kWait2) {
    // In stage 3 the remaining unknown bits are exactly the missing peers'
    // shares, so "every missing peer covered" coincides with full
    // knowledge — the known-bit count decides the Thm 2.13 release.
    if (opts_.fast_cancel && known_count_ == n()) {
      complete_now();
      return;
    }
    if (missing_.empty() || resp2s_counted_ >= quorum()) advance_phase();
    return;
  }
}

void CrashMultiPeer::advance_phase() {
  // asyncdr-lint: allow(DR014) transient reset of the volatile stage
  //   cursor; the round transition itself is journaled by start_phase's
  //   checkpoint on the next line.
  progress_ = Progress::kIdle;
  start_phase(phase_ + 1);
}

void CrashMultiPeer::complete_now() {
  if (progress_ == Progress::kDone) return;
  begin_phase("complete");
  // Query whatever is still unknown directly.
  if (!download(known_.clear_runs())) return;  // killed: no rescue, no finish
  // asyncdr-lint: allow(DR014) the download call above is the journal
  //   funnel — every bit acted on here was appended inside it before this
  //   point; progress_ and full_sent_ are volatile control state re-derived
  //   on replay, never read back from the journal.
  progress_ = Progress::kDone;
  if (!full_sent_) {
    full_sent_ = true;  // asyncdr-lint: allow(DR014) same rationale.
    broadcast(std::make_shared<Full>(out_));
  }
  finish(out_);
}

void CrashMultiPeer::process_deferred() {
  std::vector<Deferred> keep;
  auto pending = std::move(deferred_);
  deferred_.clear();
  for (auto& d : pending) {
    if (d.req1) {
      if (req1_eligible(*d.req1)) {
        handle_req1(d.from, *d.req1);
      } else {
        keep.push_back(std::move(d));
      }
    } else if (d.req2) {
      if (req2_eligible(*d.req2)) {
        handle_req2(d.from, *d.req2);
      } else {
        keep.push_back(std::move(d));
      }
    }
  }
  for (auto& d : keep) deferred_.push_back(std::move(d));
}

}  // namespace asyncdr::proto
