#include "protocols/attacks2.hpp"

#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/segments.hpp"

namespace asyncdr::proto {

CombStuffPeer::CombStuffPeer(RandParams params, std::size_t target_segment)
    : params_(params), target_(target_segment) {}

void CombStuffPeer::on_start() {
  if (params_.naive_fallback) return;
  SegmentLayout layout(n(), params_.segments);
  std::size_t cycle = 1;
  while (true) {
    const std::size_t seg = target_ % layout.count();
    const Interval b = layout.bounds(seg);
    if (b.length() > 0) {
      BitVec fake = query_runs({&b, 1});
      // Flip one position unique to this attacker: distinct candidates
      // maximize the decision tree.
      fake.flip((b.length() - 1 - id() % b.length()) % b.length());
      broadcast(std::make_shared<rnd::Report>(cycle, seg, std::move(fake)));
    }
    if (layout.count() == 1) break;
    layout = layout.coarsen();
    ++cycle;
  }
}

QuorumRusherPeer::QuorumRusherPeer(RandParams params) : params_(params) {}

void QuorumRusherPeer::on_start() {
  if (params_.naive_fallback) return;
  SegmentLayout layout(n(), params_.segments);
  std::size_t cycle = 1;
  while (true) {
    // A zero-string for segment 0 of every cycle, sent instantly: counts
    // toward quorums, says nothing useful.
    broadcast(std::make_shared<rnd::Report>(cycle, 0, BitVec(layout.length(0))));
    if (layout.count() == 1) break;
    layout = layout.coarsen();
    ++cycle;
  }
}

}  // namespace asyncdr::proto
