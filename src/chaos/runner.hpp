// Multi-threaded chaos sweeps. Each dr::World is fully independent (a run
// is a pure function of its Scenario), so the protocol × seed grid fans out
// over the campaign substrate (src/campaign): work-stealing workers claim
// cases off a shared cursor and results are re-assembled in grid order,
// making the rendered report a deterministic function of the sweep options
// alone — byte-identical regardless of thread count or interleaving. The
// substrate's telemetry (JSONL event stream, progress line, summary JSON)
// is available through SweepOptions::telemetry.
//
// Every failing case is shrunk before reporting: the shrinker tightens the
// sampling caps (input length, peer count, fault count, latency spread) one
// dimension at a time, keeping a candidate only if the failure persists,
// until no dimension can shrink further. The result is a one-line repro
// (CLI flags) for the smallest failing member of the original sample space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "chaos/injectors.hpp"
#include "dr/world.hpp"

namespace asyncdr::chaos {

/// One executed case.
struct CaseResult {
  std::string protocol;
  std::uint64_t seed = 0;
  std::string description;
  dr::RunReport report;
  /// Empty = pass. Otherwise names the violated guarantee ("download
  /// predicate violated: ...", "Q 812 > bound 640", ...).
  std::string violation;
  /// Beyond-model case that degraded (tracked apart from violations).
  bool degraded = false;
};

/// The minimal failing configuration a violation shrank to.
struct ShrunkRepro {
  std::string protocol;
  std::uint64_t seed = 0;
  ChaosOptions options;   ///< tightened caps
  dr::Config cfg;         ///< shape of the shrunk case
  std::string violation;  ///< violation observed at the shrunk point
  std::size_t shrink_runs = 0;  ///< executions the shrinker spent
  /// The one-line repro: `asyncdr_cli chaos ...` flags reproducing this
  /// exact case.
  std::string command_line;
  /// Metrics snapshot (asyncdr-metrics-v2 JSON) from one rerun of the
  /// shrunk case with a collector attached — the machine-readable side of
  /// the failure report (CI uploads these as artifacts).
  std::string metrics_json;
  /// Critical-path analysis of the same traced rerun: the rendered text
  /// tree and its JSON form. On stalls this is the critical prefix of the
  /// stuck run — the "what chain got it here" artifact. Empty only if the
  /// rerun recorded no trace.
  std::string critpath_text;
  std::string critpath_json;
};

struct SweepOptions {
  /// Registry names to sweep. Empty = the deterministic default grid
  /// (naive, crash_one, crash_multi, committee).
  std::vector<std::string> protocols;
  std::uint64_t seed_base = 1;
  std::size_t seeds = 100;
  /// 0 = auto: ASYNCDR_THREADS env override if set, else clamped hardware
  /// concurrency (see common/threads.hpp).
  std::size_t threads = 0;
  ChaosOptions chaos;
  bool shrink = true;
  /// Per-run event budget. Sweeps use a tighter budget than the default so
  /// a runaway case fails fast into a stall report.
  std::size_t max_events = 2'000'000;
  /// Campaign observability opt-ins (progress line, JSONL event stream,
  /// summary JSON); all off by default.
  campaign::TelemetryOptions telemetry;
};

struct SweepReport {
  std::size_t cases = 0;
  std::size_t passed = 0;
  std::size_t degraded = 0;  ///< beyond-model cases that failed gracefully
  std::vector<CaseResult> failures;  ///< in grid order
  std::vector<ShrunkRepro> repros;   ///< parallel to failures (if shrink)
  /// Pass/fail counts per protocol, in grid order.
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
      per_protocol;
  /// Every executed case, in grid order (verbose rendering / tests).
  std::vector<CaseResult> cases_detail;

  /// Deterministic rendering (the CLI's output).
  [[nodiscard]] std::string to_string(bool verbose = false) const;
};

class ChaosRunner {
 public:
  explicit ChaosRunner(SweepOptions options);

  /// Runs the sweep: fan out, collect, shrink failures.
  [[nodiscard]] SweepReport run() const;

  /// Samples and executes one case.
  static CaseResult run_case(const ProtocolProfile& profile,
                             std::uint64_t seed, const ChaosOptions& options,
                             std::size_t max_events);

  /// Greedily shrinks a failing (profile, seed) to minimal caps. With an
  /// event stream attached, every accepted shrink step and the final repro
  /// line are emitted into the campaign log.
  static ShrunkRepro shrink_failure(const ProtocolProfile& profile,
                                    std::uint64_t seed, ChaosOptions options,
                                    std::size_t max_events,
                                    campaign::EventStream* events = nullptr);

  /// The default deterministic protocol grid.
  static std::vector<std::string> default_protocols();

 private:
  SweepOptions options_;
};

}  // namespace asyncdr::chaos
