// Measurement from outside the program: host clocks, and the probes the
// traced run attaches through the library's public hooks (a network
// observer, a source-query listener and a LatencyPolicy decorator). The
// untraced run attaches none of them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace perfbench {

/// Monotonic wall clock, in seconds.
double wall_now();
/// CPU time of the calling thread, in seconds.
double thread_cpu_now();
/// User + system CPU time of the whole process (getrusage), in seconds.
double process_cpu_now();
/// Peak resident set size of the process (getrusage ru_maxrss, which Linux
/// takes from VmHWM), in MiB.
double peak_rss_mb();

/// Work counted at the network, source and adversary boundaries of one
/// world. Each world owns its own, so campaign workers share nothing.
struct LayerCounters {
  std::uint64_t sends = 0;
  std::uint64_t unit_messages = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t query_calls = 0;
  std::uint64_t bits_queried = 0;
  std::uint64_t latency_calls = 0;
  double latency_s = 0;  ///< wall time inside LatencyPolicy::propagation
};

/// Counts sends, unit messages, deliveries and drops (World::add_observer).
class NetworkProbe final : public asyncdr::sim::NetworkObserver {
 public:
  explicit NetworkProbe(LayerCounters& counters) : c_(counters) {}
  void on_send(const asyncdr::sim::Message& msg,
               std::size_t unit_messages) override;
  void on_deliver(const asyncdr::sim::Message& msg) override;
  void on_drop(const asyncdr::sim::Message& msg) override;

 private:
  LayerCounters& c_;
};

/// Forwards to the world's real scheduling adversary and times each call.
class TimedLatency final : public asyncdr::sim::LatencyPolicy {
 public:
  TimedLatency(std::unique_ptr<asyncdr::sim::LatencyPolicy> inner,
               LayerCounters& counters)
      : inner_(std::move(inner)), c_(counters) {}
  asyncdr::sim::Time propagation(const asyncdr::sim::Message& msg) override;

 private:
  std::unique_ptr<asyncdr::sim::LatencyPolicy> inner_;
  LayerCounters& c_;
};

/// One traced interval. `parent` is the index of the enclosing span in the
/// same log, or -1 for a root.
struct Span {
  std::string name;
  std::string label;
  double start_s = 0;
  double end_s = 0;
  std::int64_t parent = -1;
};

/// Writes spans as a JSON array of {id, parent, name, label, start_us,
/// dur_us}, times relative to `origin_s`. Returns false on an I/O error.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 double origin_s);

}  // namespace perfbench
