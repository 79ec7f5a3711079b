// Shared helpers for the benchmark/reproduction binaries: each bench prints
// the paper artifact it regenerates, runs seeded scenarios, and renders
// aligned tables of paper-bound vs measured values.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "protocols/bounds.hpp"
#include "protocols/lowerbound.hpp"
#include "protocols/runner.hpp"

namespace asyncdr::bench {

inline void banner(const std::string& experiment, const std::string& claim) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Runs the scenario `repeats` times with derived seeds; returns summaries
/// of Q, T, M and the count of failed runs.
struct RepeatStats {
  Summary q, t, m;
  std::size_t failures = 0;
  std::size_t runs = 0;
  /// Critical-path composition, filled by repeat_runs_critpath only: the
  /// path length (== T on reconciled runs), its link-latency share, and the
  /// residual local-sequencing share, per successful run.
  Summary cp_len, cp_link, cp_local;
  std::size_t cp_reconciled = 0;
  /// FNV-1a over every run's RunReport::to_string() in run order, failed
  /// runs included, as perfbench fingerprints a workload: equal
  /// fingerprints mean every simulated statistic of the series is
  /// unchanged. Set by repeat_runs and repeat_runs_critpath only.
  std::optional<std::uint64_t> fingerprint;
};

/// Folds one run's report into stats.fingerprint.
inline void fold_fingerprint(RepeatStats& stats, const dr::RunReport& report) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = stats.fingerprint.value_or(0xcbf29ce484222325ull);
  for (const char c : report.to_string()) {
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
  h ^= '\n';
  h *= kPrime;
  stats.fingerprint = h;
}

template <typename ScenarioBuilder>
RepeatStats repeat_runs(std::size_t repeats, ScenarioBuilder&& build) {
  RepeatStats stats;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    proto::Scenario s = build(rep);
    const dr::RunReport report = proto::run_scenario(s);
    ++stats.runs;
    fold_fingerprint(stats, report);
    if (!report.ok()) {
      ++stats.failures;
      continue;
    }
    stats.q.add(static_cast<double>(report.query_complexity));
    stats.t.add(report.time_complexity);
    stats.m.add(static_cast<double>(report.message_complexity));
  }
  return stats;
}

/// repeat_runs with tracing enabled: each run's critical path (embedded by
/// run_scenario on traced runs) is folded into the cp_* summaries, so the
/// bench can report not just T but what T was spent on.
template <typename ScenarioBuilder>
RepeatStats repeat_runs_critpath(std::size_t repeats, ScenarioBuilder&& build) {
  RepeatStats stats;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    proto::Scenario s = build(rep);
    auto inner = std::move(s.instrument);
    s.instrument = [inner = std::move(inner)](dr::World& world) {
      world.enable_trace();
      if (inner) inner(world);
    };
    const dr::RunReport report = proto::run_scenario(s);
    ++stats.runs;
    fold_fingerprint(stats, report);
    if (!report.ok()) {
      ++stats.failures;
      continue;
    }
    stats.q.add(static_cast<double>(report.query_complexity));
    stats.t.add(report.time_complexity);
    stats.m.add(static_cast<double>(report.message_complexity));
    if (report.critical_path.has_value() && report.critical_path->reconciled) {
      const obs::CriticalPathReport& cp = *report.critical_path;
      ++stats.cp_reconciled;
      double link = 0;
      for (const obs::CriticalPathReport::Attribution& a : cp.by_edge_kind) {
        if (a.key == std::string("link")) link = a.time;
      }
      stats.cp_len.add(cp.path_length);
      stats.cp_link.add(link);
      stats.cp_local.add(cp.path_length - cp.start_offset - link);
    }
  }
  return stats;
}

inline std::string mean_cell(const Summary& s) {
  return s.empty() ? "-" : Table::to_cell(s.mean());
}

/// One-line rendering of the cp_* summaries for the printed tables.
inline std::string critpath_cell(const RepeatStats& stats) {
  if (stats.cp_len.empty() || stats.cp_len.mean() <= 0) return "-";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.0f%% link / %.0f%% local",
                100.0 * stats.cp_link.mean() / stats.cp_len.mean(),
                100.0 * stats.cp_local.mean() / stats.cp_len.mean());
  return buf;
}

/// One grid point of a bench campaign: a ready-to-run scenario builder plus
/// the (section, label) identity its result aggregates under.
struct BenchPoint {
  std::string section;
  std::string label;
  std::uint64_t seed = 0;
  std::function<proto::Scenario()> build;
};

/// Resolves a bench binary's campaign telemetry from its argv: the JSONL
/// event stream (bench_<name>.events.jsonl) and campaign summary
/// (CAMPAIGN_<name>.json) land next to the BENCH json in $ASYNCDR_BENCH_DIR;
/// `--progress 1` turns on the live progress line, `--timing 1` adds the
/// machine-dependent timing section to the summary.
inline campaign::TelemetryOptions bench_telemetry(const std::string& name,
                                                  int argc, char** argv) {
  campaign::TelemetryOptions t;
  const char* dir = std::getenv("ASYNCDR_BENCH_DIR");
  const std::string base = dir != nullptr && *dir != '\0' ? dir : ".";
  t.events_path = base + "/bench_" + name + ".events.jsonl";
  t.summary_path = base + "/CAMPAIGN_" + name + ".json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--progress") == 0) {
      t.progress = std::strtoul(argv[i + 1], nullptr, 10) != 0;
    } else if (std::strcmp(argv[i], "--timing") == 0) {
      t.include_timing = std::strtoul(argv[i + 1], nullptr, 10) != 0;
    }
  }
  return t;
}

/// Runs a bench grid over the campaign substrate and returns the reports in
/// grid order. `threads` follows common/threads semantics (0 = auto with
/// the ASYNCDR_THREADS override); pass 1 when points must run in grid order
/// (e.g. per-point RSS accounting). The campaign summary groups runs by
/// "section/label".
inline std::vector<dr::RunReport> run_bench_campaign(
    const std::string& name, const std::vector<BenchPoint>& grid,
    const campaign::TelemetryOptions& telemetry, std::size_t threads = 0) {
  campaign::CampaignOptions copts;
  copts.name = name;
  copts.total = grid.size();
  copts.threads = threads;
  copts.seed_base = grid.empty() ? 1 : grid.front().seed;
  copts.seed_fn = [&grid](std::size_t i) { return grid[i].seed; };
  copts.telemetry = telemetry;
  campaign::Campaign camp(std::move(copts));
  std::vector<dr::RunReport> reports(grid.size());
  camp.run([&](std::size_t i, std::uint64_t) {
    proto::Scenario s = grid[i].build();
    dr::RunReport report = proto::run_scenario(s);
    campaign::RunOutcome out;
    out.label = grid[i].section + "/" + grid[i].label;
    out.status =
        report.ok() ? obs::RunStatus::kOk : obs::RunStatus::kFailed;
    if (!report.ok()) out.detail = "run failed (predicate or budget)";
    out.report = report;
    reports[i] = std::move(report);
    return out;
  });
  camp.finish();
  return reports;
}

/// Machine-readable twin of the printed tables: every bench records its
/// (section, label) data points here and the destructor writes
/// BENCH_<name>.json (schema asyncdr-bench-v1) into $ASYNCDR_BENCH_DIR, or
/// the working directory when unset. CI diffs fresh files against the
/// checked-in baselines with tools/compare_bench.py.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    doc_["schema"] = "asyncdr-bench-v1";
    doc_["bench"] = name_;
    doc_["entries"] = obs::Json::array();
  }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  ~BenchJson() { write(); }

  /// One measured series point (a printed table row).
  void record(const std::string& section, const std::string& label,
              const RepeatStats& stats) {
    obs::Json e = obs::Json::object();
    e["section"] = section;
    e["label"] = label;
    e["runs"] = static_cast<std::uint64_t>(stats.runs);
    e["failures"] = static_cast<std::uint64_t>(stats.failures);
    if (stats.fingerprint.has_value()) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(*stats.fingerprint));
      e["fingerprint"] = std::string(hex);
    }
    // Mean/min/max plus exact (linear-interpolated) distribution
    // percentiles, so the committed baselines pin tail behaviour, not just
    // the centre. compare_bench.py diffs the p50/p90/p99 fields with wider
    // per-metric tolerances than the means.
    if (!stats.q.empty()) {
      e["q_mean"] = stats.q.mean();
      e["q_min"] = stats.q.min();
      e["q_max"] = stats.q.max();
      e["q_p50"] = stats.q.percentile(50);
      e["q_p90"] = stats.q.percentile(90);
      e["q_p99"] = stats.q.percentile(99);
    }
    if (!stats.t.empty()) {
      e["t_mean"] = stats.t.mean();
      e["t_p50"] = stats.t.percentile(50);
      e["t_p90"] = stats.t.percentile(90);
      e["t_p99"] = stats.t.percentile(99);
    }
    if (!stats.m.empty()) {
      e["m_mean"] = stats.m.mean();
      e["m_p50"] = stats.m.percentile(50);
      e["m_p90"] = stats.m.percentile(90);
      e["m_p99"] = stats.m.percentile(99);
    }
    // Optional critical-path fields (repeat_runs_critpath callers only).
    if (!stats.cp_len.empty()) {
      e["critpath_len_mean"] = stats.cp_len.mean();
      e["critpath_link_mean"] = stats.cp_link.mean();
      e["critpath_local_mean"] = stats.cp_local.mean();
      e["critpath_reconciled"] =
          static_cast<std::uint64_t>(stats.cp_reconciled);
    }
    doc_["entries"].push_back(std::move(e));
  }

  /// A single named scalar for benches with bespoke measurement loops.
  void record_value(const std::string& section, const std::string& label,
                    const std::string& metric, double value) {
    record_values(section, label, {{metric, value}});
  }

  /// Several named scalars under one (section, label) key — one entry, so
  /// compare_bench.py sees them as a single comparable data point.
  void record_values(
      const std::string& section, const std::string& label,
      std::initializer_list<std::pair<std::string, double>> metrics) {
    obs::Json e = obs::Json::object();
    e["section"] = section;
    e["label"] = label;
    for (const auto& [metric, value] : metrics) e[metric] = value;
    doc_["entries"].push_back(std::move(e));
  }

  /// record_values for metric sets computed at run time (e.g. the per-pool
  /// memory breakdown, one field per pool), with optional string-valued
  /// tags alongside (e.g. the RSS mechanism — the comparator skips
  /// non-numeric fields other than `fingerprint`, but humans and CI logs
  /// want them recorded).
  void record_mixed(
      const std::string& section, const std::string& label,
      const std::vector<std::pair<std::string, double>>& metrics,
      const std::vector<std::pair<std::string, std::string>>& tags = {}) {
    obs::Json e = obs::Json::object();
    e["section"] = section;
    e["label"] = label;
    for (const auto& [metric, value] : metrics) e[metric] = value;
    for (const auto& [tag, value] : tags) e[tag] = value;
    doc_["entries"].push_back(std::move(e));
  }

  std::string path() const {
    const char* dir = std::getenv("ASYNCDR_BENCH_DIR");
    const std::string base = dir != nullptr && *dir != '\0' ? dir : ".";
    return base + "/BENCH_" + name_ + ".json";
  }

  void write() {
    if (written_) return;
    written_ = true;
    const std::string p = path();
    std::ofstream f(p, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", p.c_str());
      return;
    }
    f << doc_.dump(2) << '\n';
    std::fprintf(stderr, "bench json: %s\n", p.c_str());
  }

 private:
  std::string name_;
  obs::Json doc_ = obs::Json::object();
  bool written_ = false;
};

}  // namespace asyncdr::bench
