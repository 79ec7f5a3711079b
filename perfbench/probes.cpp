// asyncdr-lint: allow(DR001) the benchmark measures the host's real time
// from outside the simulation; no simulated decision reads these clocks.
#include "probes.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

double wall_now() {
  // asyncdr-lint: allow(DR001) host wall time, see the file header.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

double thread_cpu_now() {
  timespec ts{};
  // asyncdr-lint: allow(DR001) host thread CPU time, see the file header.
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void NetworkProbe::on_send(const asyncdr::sim::Message&,
                           std::size_t unit_messages) {
  ++c_.sends;
  c_.unit_messages += unit_messages;
}

void NetworkProbe::on_deliver(const asyncdr::sim::Message&) { ++c_.deliveries; }

void NetworkProbe::on_drop(const asyncdr::sim::Message&) { ++c_.drops; }

asyncdr::sim::Time TimedLatency::propagation(const asyncdr::sim::Message& msg) {
  const double start = wall_now();
  const asyncdr::sim::Time t = inner_->propagation(msg);
  c_.latency_s += wall_now() - start;
  ++c_.latency_calls;
  return t;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 double origin_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Labels are built by the benchmark from [A-Za-z0-9/=_ -]; no escaping.
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"label\":\"%s\","
                 "\"start_us\":%.3f,\"dur_us\":%.3f}%s\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(),
                 s.label.c_str(), 1e6 * (s.start_s - origin_s),
                 1e6 * (s.end_s - s.start_s), i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
