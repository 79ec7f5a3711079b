// Live metrics for one dr::World run. A passive NetworkObserver plus a
// source-query listener record what only a live observer sees: four
// distributions (query bits per call, payload bits per send, delivery
// latency, event-queue depth), per-peer query calls and the drop count.
// snapshot() joins them with what the run already keeps (RunReport's
// Q/T/M, phases, recovery and mem pools; the network's per-peer sends; the
// source's served bits) into one asyncdr-metrics-v2 JSON document. Attach
// before run(); snapshot in the scenario's post_run, while the world lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dr/world.hpp"
#include "obs/json.hpp"
#include "obs/loghist.hpp"
#include "sim/network.hpp"

namespace asyncdr::obs {

/// The standard run collector. Must outlive the world's run() call; the
/// world holds its address, so it is neither copied nor moved.
class RunMetricsCollector final : public sim::NetworkObserver {
 public:
  RunMetricsCollector() = default;
  RunMetricsCollector(const RunMetricsCollector&) = delete;
  RunMetricsCollector& operator=(const RunMetricsCollector&) = delete;

  /// Registers with the world (network observer + query listener).
  void attach(dr::World& world);

  // sim::NetworkObserver
  void on_send(const sim::Message& msg, std::size_t unit_messages) override;
  void on_deliver(const sim::Message& msg) override;
  void on_drop(const sim::Message& msg) override;

  /// The run's snapshot: {"schema": "asyncdr-metrics-v2", "run", "phases",
  /// "recovery", "mem", "peers" (arrays indexed by peer id), "histograms"
  /// (LogHistogram::snapshot_json each)}. A pure function of the run, so
  /// two runs of one config and seed give byte-identical dumps.
  [[nodiscard]] Json snapshot(const dr::World& world,
                              const dr::RunReport& report) const;

 private:
  const sim::Engine* engine_ = nullptr;
  LogHistogram query_bits_;    ///< bits per accounted query call
  LogHistogram payload_bits_;  ///< payload bits per send
  LogHistogram latency_;       ///< virtual time from send to delivery
  LogHistogram queue_depth_;   ///< pending engine events at each send/delivery
  std::vector<std::uint64_t> peer_query_calls_;  ///< indexed by peer id
  std::uint64_t dropped_ = 0;
};

}  // namespace asyncdr::obs
