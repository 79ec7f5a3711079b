#include "dr/world.hpp"
#include "protocols/attacks.hpp"

#include "protocols/byzmulti.hpp"
#include "protocols/segments.hpp"

namespace asyncdr::proto {

void GarbageByzPeer::on_start() {
  broadcast(std::make_shared<Noise>());
  // A malformed committee vote vector (wrong length) for good measure.
  broadcast(std::make_shared<committee::Votes>(BitVec(1)));
  // A malformed randomized-protocol report (out-of-range segment).
  broadcast(std::make_shared<rnd::Report>(1, n() + 17, BitVec(3)));
}

void GarbageByzPeer::on_message(sim::PeerId, const sim::Payload&) {
  // Reply to every message with more noise (bounded, to keep runs finite).
  if (sent_ < 4 * k()) {
    ++sent_;
    broadcast(std::make_shared<Noise>());
  }
}

void CommitteeLiarPeer::on_start() {
  const std::size_t t = world().config().max_faulty();
  const CommitteeAssignment assignment(n(), k(), t);
  // Byzantine peers may query freely; their cost is not measured.
  const BitVec truth = query_runs(assignment.runs_of(id()));

  switch (mode_) {
    case Mode::kFlipAll: {
      BitVec lie = truth;
      for (std::size_t j = 0; j < lie.size(); ++j) lie.flip(j);
      broadcast(std::make_shared<committee::Votes>(std::move(lie)));
      break;
    }
    case Mode::kRandom: {
      broadcast(std::make_shared<committee::Votes>(
          rng().fair_bits(truth.size())));
      break;
    }
    case Mode::kEquivocate: {
      BitVec lie = truth;
      for (std::size_t j = 0; j < lie.size(); ++j) lie.flip(j);
      for (sim::PeerId to = 0; to < k(); ++to) {
        if (to == id()) continue;
        send(to, std::make_shared<committee::Votes>(to % 2 == 0 ? truth : lie));
      }
      break;
    }
  }
}

VoteStuffPeer::VoteStuffPeer(RandParams params, std::size_t target_segment)
    : params_(params), target_(target_segment) {}

void VoteStuffPeer::on_start() {
  if (params_.naive_fallback) return;
  // Stuff the same complement-of-truth fake for the target segment of every
  // cycle's layout, all at once (asynchrony permits arbitrarily early
  // sends). All Byzantine instances fabricate identically, so the fake
  // accumulates t supporting votes at every honest receiver.
  SegmentLayout layout(n(), params_.segments);
  std::size_t cycle = 1;
  while (true) {
    const std::size_t seg = target_ % layout.count();
    const Interval b = layout.bounds(seg);
    if (b.length() > 0) {
      BitVec fake = query_runs({&b, 1});
      for (std::size_t j = 0; j < fake.size(); ++j) fake.flip(j);
      broadcast(std::make_shared<rnd::Report>(cycle, seg, std::move(fake)));
    }
    if (layout.count() == 1) break;
    layout = layout.coarsen();
    ++cycle;
  }
}

EquivocatorPeer::EquivocatorPeer(RandParams params) : params_(params) {}

void EquivocatorPeer::on_start() {
  if (params_.naive_fallback) return;
  SegmentLayout layout(n(), params_.segments);
  std::size_t cycle = 1;
  while (true) {
    for (sim::PeerId to = 0; to < k(); ++to) {
      if (to == id()) continue;
      const auto seg = static_cast<std::size_t>(rng().below(layout.count()));
      send(to, std::make_shared<rnd::Report>(
                   cycle, seg, rng().fair_bits(layout.length(seg))));
    }
    if (layout.count() == 1) break;
    layout = layout.coarsen();
    ++cycle;
  }
}

}  // namespace asyncdr::proto
