#include "dr/world.hpp"
#include "protocols/crash_one.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace asyncdr::proto {

using crash1::Stage1;
using crash1::Stage2Req;
using crash1::Stage2Resp;

void CrashOnePeer::on_start() {
  ASYNCDR_EXPECTS_MSG(k() >= 3, "Algorithm 1 needs k >= 3");
  ensure_init();
  begin_phase("p1:own-block");
  start_phase1();
}

void CrashOnePeer::on_restart(const dr::RecoveryState& state) {
  ensure_init();
  // Reconcile the CRC-verified journal into protocol state: every replayed
  // interval was queried (and persisted) by a previous incarnation.
  const dr::JournalReplay& journal = state.journal;
  for (const Interval& iv : journal.intervals.intervals()) {
    out_.copy_range(iv.lo, journal.bits, iv.lo, iv.length());
  }
  known_.unite(journal.intervals);
  credit_queries_saved(known_.count());
  begin_phase("recovery");
  // Resume by querying only the bits the journal does not cover. The other
  // peers may all have terminated while this one was down, so recovery
  // cannot wait on anyone: complete directly, then push the full array
  // (the same completion-mode rescue as phase 2) and terminate.
  IntervalSet missing = IntervalSet::full(n());
  missing.subtract(known_);
  if (!missing.empty()) {
    BitVec values = query_runs(missing.intervals());
    // Append before applying, as everywhere a download lands: the journal
    // never lags the state it protects.
    if (!journal_runs(missing.intervals(), values)) {
      return;  // killed at a sentinel again
    }
    BitChunk(std::move(missing), std::move(values)).apply_to(out_, known_);
  }
  if (crashed()) return;
  broadcast(std::make_shared<Stage1>(
      2, BitChunk::extract(out_, IntervalSet::full(n()))));
  progress_ = Progress::kDone;
  finish(out_);
}

std::size_t CrashOnePeer::memory_bytes() const {
  using obs::modeled_alloc_bytes;
  std::uint64_t bytes = dr::Peer::memory_bytes();
  // One red-black node per coverage entry (key + IntervalSet header inside
  // the node) plus each set's interval storage, modeled like the source's
  // overlay nodes.
  bytes += static_cast<std::uint64_t>(coverage_.size()) *
           modeled_alloc_bytes(96);
  for (const auto& [key, set] : coverage_) {
    if (set.memory_bytes() > 0) {
      bytes += modeled_alloc_bytes(set.memory_bytes());
    }
  }
  bytes += modeled_alloc_bytes(
      pending_requests_.capacity() *
      sizeof(std::pair<sim::PeerId, crash1::Stage2Req>));
  for (const auto& [from, req] : pending_requests_) {
    if (req.needed.memory_bytes() > 0) {
      bytes += modeled_alloc_bytes(req.needed.memory_bytes());
    }
  }
  return static_cast<std::size_t>(bytes);
}

void CrashOnePeer::ensure_init() {
  // Messages may arrive before this peer's (adversary-chosen) start time.
  // asyncdr-lint: allow(DR014) lazy allocation of the empty array, not
  //   recovered-data mutation: no downloaded bit exists yet, and on_restart
  //   runs this before replaying the journal into the fresh vector.
  if (out_.size() != n()) out_ = BitVec(n());
}

void CrashOnePeer::start_phase1() {
  if (!journal_checkpoint("phase", 1)) return;  // killed at the sentinel
  const Interval mine = blocks().bounds(id());
  if (mine.length() > 0) {
    const std::span<const Interval> run(&mine, 1);
    const BitVec values = query_runs(run);
    if (!journal_runs(run, values)) return;  // killed mid-append
    out_.splice(mine.lo, values);
    known_.insert(mine.lo, mine.hi);
  }
  const IntervalSet mine_set = IntervalSet::of(mine.lo, mine.hi);
  coverage_[{1, id()}] = mine_set;
  broadcast(std::make_shared<Stage1>(1, BitChunk::extract(out_, mine_set)));
  progress_ = Progress::kPhase1Wait1;
  try_advance();
}

void CrashOnePeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  ensure_init();
  if (const auto* s1 = sim::payload_as<Stage1>(payload)) {
    // asyncdr-lint: allow(DR014) bits heard from other peers are not
    //   downloads: the journal logs only what this peer queried, and a
    //   revived incarnation re-queries what it had only heard, by design.
    s1->chunk.apply_to(out_, known_);
    coverage_[{s1->phase, from}].unite(s1->chunk.indices);
    try_advance();
    return;
  }
  if (const auto* req = sim::payload_as<Stage2Req>(payload)) {
    if (progress_ == Progress::kStart || progress_ == Progress::kPhase1Wait1) {
      // The paper: delay the response until my own stage-2 wait finished.
      pending_requests_.emplace_back(from, *req);
    } else {
      answer_request(from, *req);
    }
    return;
  }
  if (const auto* resp = sim::payload_as<Stage2Resp>(payload)) {
    if (resp->has_bits) resp->chunk.apply_to(out_, known_);
    if (missing_ && resp->missing == *missing_) {
      ++responses_;
      if (resp->has_bits) got_missing_bits_ = true;
    }
    try_advance();
    return;
  }
}

void CrashOnePeer::try_advance() {
  if (progress_ == Progress::kPhase1Wait1) {
    // Stage 2 of phase 1: wait for full phase-1 stage-1 coverage from at
    // least k-1 peers (counting myself).
    std::size_t heard = 0;
    sim::PeerId unheard = sim::kNoPeer;
    const SegmentLayout layout = blocks();
    for (sim::PeerId q = 0; q < k(); ++q) {
      const Interval b = layout.bounds(q);
      const auto it = coverage_.find({1, q});
      const bool covered = b.length() == 0 || (it != coverage_.end() &&
                                               it->second.covers(b.lo, b.hi));
      if (covered) {
        ++heard;
      } else {
        unheard = q;
      }
    }
    if (known_.count() == n()) {
      enter_phase2();
    } else if (heard >= k() - 1) {
      if (heard == k()) {
        enter_phase2();  // heard everyone: all bits known
      } else {
        missing_ = unheard;
        IntervalSet needed = IntervalSet::of(layout.bounds(unheard).lo,
                                             layout.bounds(unheard).hi);
        needed.subtract(known_);
        // asyncdr-lint: allow(DR014) intra-phase stage cursor, volatile by
        //   design: recovery never resumes mid-phase (on_restart completes
        //   directly from journaled bits), so no append orders this.
        progress_ = Progress::kPhase1Wait2;
        begin_phase("p1:missing-request");
        broadcast(std::make_shared<Stage2Req>(1, unheard, needed));
        answer_pending_requests();
        try_advance();
      }
    }
    return;
  }

  if (progress_ == Progress::kPhase1Wait2) {
    // Stage 3 of phase 1: wait for k-1 responses (counting my own implicit
    // "me neither"), or any response carrying the missing bits, or full
    // knowledge through late/full messages.
    if (known_.count() == n() || got_missing_bits_ ||
        responses_ >= k() - 1) {
      enter_phase2();
    }
    return;
  }

  if (progress_ == Progress::kPhase2) {
    maybe_finish();
  }
}

void CrashOnePeer::answer_pending_requests() {
  auto pending = std::move(pending_requests_);
  pending_requests_.clear();
  for (auto& [from, req] : pending) answer_request(from, req);
}

void CrashOnePeer::answer_request(sim::PeerId from, const Stage2Req& req) {
  IntervalSet lacking = req.needed;
  lacking.subtract(known_);
  if (lacking.empty()) {
    send(from, std::make_shared<Stage2Resp>(
                   req.phase, req.missing, true,
                   BitChunk::extract(out_, req.needed)));
  } else {
    send(from,
         std::make_shared<Stage2Resp>(req.phase, req.missing, false, BitChunk{}));
  }
}

void CrashOnePeer::enter_phase2() {
  ASYNCDR_INVARIANT(progress_ == Progress::kPhase1Wait1 ||
                    progress_ == Progress::kPhase1Wait2);
  begin_phase("p2:reassign");
  // WAL order: append the phase transition before mutating the volatile
  // cursor that acts on it (killed-at-sentinel incarnations lose all
  // volatile state, so the swap is behavior-neutral — but the journal must
  // never lag the state it protects).
  if (!journal_checkpoint("phase", 2)) return;
  progress_ = Progress::kPhase2;
  answer_pending_requests();

  if (known_.count() == n()) {
    // Completion mode: push everything (the full-array fallback that keeps
    // peers stuck on a terminated peer alive).
    broadcast(std::make_shared<Stage1>(
        2, BitChunk::extract(out_, IntervalSet::full(n()))));
  } else {
    // Lacking mode: all lacking peers share the same missing peer m
    // (Lemma 2.1); query and push my reassigned share of m's block.
    ASYNCDR_INVARIANT_MSG(missing_.has_value(),
                          "lacking peer must know its missing peer");
    const IntervalSet share = phase2_share(*missing_, id());
    IntervalSet to_query = share;
    to_query.subtract(known_);
    if (!to_query.empty()) {
      BitVec values = query_runs(to_query.intervals());
      if (!journal_runs(to_query.intervals(), values)) return;
      BitChunk(std::move(to_query), std::move(values)).apply_to(out_, known_);
    }
    broadcast(std::make_shared<Stage1>(2, BitChunk::extract(out_, share)));
  }
  phase2_broadcast_done_ = true;
  maybe_finish();
}

void CrashOnePeer::maybe_finish() {
  if (progress_ == Progress::kPhase2 && phase2_broadcast_done_ &&
      known_.count() == n()) {
    // asyncdr-lint: allow(DR014) terminal transition: on replay, completion
    //   is re-derived from the journaled bits (known_ covering [0,n)), never
    //   from a persisted progress flag.
    progress_ = Progress::kDone;
    finish(out_);
  }
}

IntervalSet CrashOnePeer::phase2_share(sim::PeerId missing,
                                       sim::PeerId owner) const {
  ASYNCDR_EXPECTS(owner != missing);
  const Interval block = blocks().bounds(missing);
  const auto parts =
      IntervalSet::of(block.lo, block.hi).split_evenly(k() - 1);
  // Owner's index among peers != missing, in increasing ID order — a rule
  // every peer evaluates identically, so the reassignments agree.
  const std::size_t slot = owner < missing ? owner : owner - 1;
  return parts[slot];
}

}  // namespace asyncdr::proto
