#include "dr/world.hpp"
#include "protocols/byz2cycle.hpp"

#include "common/check.hpp"
#include "protocols/decision_tree.hpp"

namespace asyncdr::proto {

TwoCyclePeer::TwoCyclePeer(RandParams params) : params_(params) {}

void TwoCyclePeer::on_start() {
  if (params_.naive_fallback) {
    begin_phase("bulk-download");
    finish(query_range(0, n()));
    return;
  }
  begin_phase("cycle1:sample-report");
  layout_ = std::make_unique<SegmentLayout>(n(), params_.segments);
  bank_ = std::make_unique<StringBank>(params_.segments);

  my_pick_ = static_cast<std::size_t>(rng().below(params_.segments));
  const Interval b = layout_->bounds(my_pick_);
  my_value_ = query_range(b.lo, b.length());
  bank_->record(my_pick_, id(), my_value_);
  reporters_.insert(id(), k());
  broadcast(std::make_shared<rnd::Report>(1, my_pick_, my_value_));
  started_ = true;
  try_decide();
}

void TwoCyclePeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  if (params_.naive_fallback) return;
  const auto* report = sim::payload_as<rnd::Report>(payload);
  if (report == nullptr) return;  // garbage payload
  // Reports may legitimately arrive before my own start (no simultaneous
  // start in the model) — buffer them in the bank either way.
  if (layout_ == nullptr) {
    layout_ = std::make_unique<SegmentLayout>(n(), params_.segments);
    bank_ = std::make_unique<StringBank>(params_.segments);
  }
  if (report->cycle != 1 || report->seg >= params_.segments) return;
  if (report->value.size() != layout_->length(report->seg)) return;
  bank_->record(report->seg, from, report->value, report->hash);
  reporters_.insert(from, k());
  try_decide();
}

void TwoCyclePeer::try_decide() {
  if (terminated() || !started_) return;
  const std::size_t quorum = k() - world().config().max_faulty();
  if (reporters_.size() < quorum) return;

  begin_phase("cycle2:decide");
  BitVec out(n());
  for (std::size_t seg = 0; seg < params_.segments; ++seg) {
    const Interval b = layout_->bounds(seg);
    if (seg == my_pick_) {
      out.splice(b.lo, my_value_);
      continue;
    }
    const std::vector<BitVec> candidates = bank_->frequent(seg, params_.tau);
    if (candidates.empty()) {
      // The w.h.p. event failed for this segment: fall back to querying it
      // directly. Correctness is preserved; the cost shows up in Q.
      ++fallback_segments_;
      out.splice(b.lo, query_range(b.lo, b.length()));
      continue;
    }
    const DecisionTree tree(candidates);
    std::size_t spent = 0;
    const BitVec& winner = tree.determine(
        [&](std::size_t index) {
          ++spent;
          return query(index);
        },
        b.lo);
    tree_queries_ += spent;
    out.splice(b.lo, winner);
  }
  finish(out);
}

}  // namespace asyncdr::proto
