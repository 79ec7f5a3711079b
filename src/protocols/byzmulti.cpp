#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"

#include "common/check.hpp"
#include "protocols/decision_tree.hpp"

namespace asyncdr::proto {

MultiCyclePeer::MultiCyclePeer(RandParams params, Schedule schedule)
    : params_(params), schedule_(schedule) {}

void MultiCyclePeer::init_structures() {
  if (!layouts_.empty()) return;
  layouts_.emplace_back(n(), params_.segments);
  if (schedule_ == Schedule::kMultiCycle) {
    while (layouts_.back().count() > 1) {
      layouts_.push_back(layouts_.back().coarsen());
    }
  }
  // The 2-cycle chain, and the multi-cycle one from a single segment: the
  // last cycle determines the whole input from cycle 1's reports.
  if (layouts_.size() == 1) layouts_.emplace_back(n(), 1);
  total_cycles_ = layouts_.size();
  for (const SegmentLayout& layout : layouts_) {
    banks_.emplace_back(layout.count());
  }
  reporters_.resize(total_cycles_);
}

std::string MultiCyclePeer::phase_name(std::size_t j) const {
  if (schedule_ == Schedule::kTwoCycle) {
    return j == 1 ? "cycle1:sample-report" : "cycle2:decide";
  }
  return "cycle-" + std::to_string(j);
}

void MultiCyclePeer::on_start() {
  if (params_.naive_fallback) {
    begin_phase("bulk-download");
    const Interval all{0, n()};
    finish(query_runs({&all, 1}));
    return;
  }
  init_structures();

  // Cycle 1: pick, query in full, report.
  begin_phase(phase_name(1));
  cycle_ = 1;
  my_pick_ = static_cast<std::size_t>(rng().below(layouts_[0].count()));
  const Interval b = layouts_[0].bounds(my_pick_);
  my_value_ = query_runs({&b, 1});
  banks_[0].record(my_pick_, id(), my_value_);
  reporters_[0].insert(id(), k());
  broadcast(std::make_shared<rnd::Report>(1, my_pick_, my_value_));
  started_ = true;
  try_advance();
}

void MultiCyclePeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  if (params_.naive_fallback) return;
  const auto* report = sim::payload_as<rnd::Report>(payload);
  if (report == nullptr) return;
  init_structures();
  // Reports are broadcast in cycles 1 .. total-1 only (nobody consumes a
  // final-cycle report).
  if (report->cycle < 1 || report->cycle >= total_cycles_) return;
  const SegmentLayout& layout = layouts_[report->cycle - 1];
  if (report->seg >= layout.count()) return;
  if (report->value.size() != layout.length(report->seg)) return;
  banks_[report->cycle - 1].record(report->seg, from, report->value,
                                   report->hash);
  reporters_[report->cycle - 1].insert(from, k());
  try_advance();
}

void MultiCyclePeer::try_advance() {
  if (terminated() || !started_) return;
  const std::size_t quorum = k() - world().config().max_faulty();
  while (cycle_ < total_cycles_ &&
         reporters_[cycle_ - 1].size() >= quorum) {
    start_cycle(cycle_ + 1);
    if (terminated()) return;
  }
}

void MultiCyclePeer::start_cycle(std::size_t j) {
  ASYNCDR_INVARIANT(j >= 2 && j <= total_cycles_);
  begin_phase(phase_name(j));
  const SegmentLayout& layout = layouts_[j - 1];
  const SegmentLayout& finer = layouts_[j - 2];

  const auto pick = static_cast<std::size_t>(rng().below(layout.count()));

  // Determine the picked segment from the cycle-(j-1) segments it spans.
  BitVec value(layout.length(pick));
  std::size_t at = 0;
  const Interval children = finer.segments_in(layout.bounds(pick));
  for (std::size_t child = children.lo; child < children.hi; ++child) {
    const BitVec part = determine_segment(j - 1, child);
    value.splice(at, part);
    at += part.size();
  }
  ASYNCDR_INVARIANT(at == value.size());

  cycle_ = j;
  my_pick_ = pick;
  my_value_ = value;

  if (j < total_cycles_) {
    banks_[j - 1].record(pick, id(), value);
    reporters_[j - 1].insert(id(), k());
    broadcast(std::make_shared<rnd::Report>(j, pick, value));
    return;
  }
  // Final cycle: the single segment is the whole input.
  finish(my_value_);
}

BitVec MultiCyclePeer::determine_segment(std::size_t j, std::size_t seg) {
  const SegmentLayout& layout = layouts_[j - 1];
  const Interval b = layout.bounds(seg);
  // My own previous pick needs no resolution.
  if (j == cycle_ && seg == my_pick_) return my_value_;

  // Cycle 1 uses the configured tau (the tau ablation and the lower-bound
  // victims override it); derived parameters give tau == tau_for(s).
  const std::size_t tau =
      j == 1 ? params_.tau : params_.tau_for(layout.count());
  const std::vector<BitVec> candidates = banks_[j - 1].frequent(seg, tau);
  if (candidates.empty()) {
    ++fallback_segments_;
    return query_runs({&b, 1});
  }
  const DecisionTree tree(candidates);
  const BitVec& winner = tree.determine(
      [&](std::size_t index) {
        ++tree_queries_;
        const Interval bit{index, index + 1};
        return query_runs({&bit, 1}).get(0);
      },
      b.lo);
  return winner;
}

}  // namespace asyncdr::proto
