#include "protocols/naive.hpp"

namespace asyncdr::proto {

void NaivePeer::on_start() {
  begin_phase("bulk-download");
  const Interval all{0, n()};
  finish(query_runs({&all, 1}));
}

void NaivePeer::on_message(sim::PeerId, const sim::Payload&) {
  // The naive protocol is non-interactive.
}

}  // namespace asyncdr::proto
