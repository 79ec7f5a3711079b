#include "chaos/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "campaign/runner.hpp"
#include "common/check.hpp"
#include "obs/collect.hpp"
#include "obs/export.hpp"

namespace asyncdr::chaos {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string join_ids(const std::vector<sim::PeerId>& ids, std::size_t cap = 8) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size() && i < cap; ++i) {
    if (i > 0) os << ',';
    os << ids[i];
  }
  if (ids.size() > cap) os << ",... (" << ids.size() << " total)";
  return os.str();
}

/// Classifies a finished run against the Download predicate and the
/// profile's closed-form bounds. Empty = pass. At most one violation is
/// reported, most fundamental first (a stalled run's Q is meaningless).
std::string classify(const ProtocolProfile& profile, const ChaosCase& cs,
                     const dr::RunReport& report) {
  std::ostringstream os;
  if (report.budget_exhausted) {
    os << "stalled: event budget exhausted after " << report.events
       << " events";
  } else if (!report.all_terminated) {
    os << "download predicate violated: " << report.unterminated_peers.size()
       << " nonfaulty peer(s) never terminated (peers "
       << join_ids(report.unterminated_peers) << ")";
  } else if (!report.all_correct) {
    os << "download predicate violated: " << report.incorrect_peers.size()
       << " nonfaulty peer(s) output a wrong array (peers "
       << join_ids(report.incorrect_peers) << ")";
  } else if (cs.q_bound > 0 && report.query_complexity > cs.q_bound) {
    os << "Q " << report.query_complexity << " > bound " << cs.q_bound;
  } else if (cs.m_bound > 0 && report.message_complexity > cs.m_bound) {
    os << "M " << report.message_complexity << " > bound " << cs.m_bound;
  } else if (cs.t_bound > 0 && cs.timing_faithful &&
             report.time_complexity > cs.t_bound + 1e-9) {
    os << "T " << fmt(report.time_complexity) << " > bound "
       << fmt(cs.t_bound);
  } else {
    return {};
  }
  if (profile.whp) {
    os << " [whp guarantee: may be a rare legitimate failure]";
  }
  return os.str();
}

std::string repro_command(const std::string& protocol, std::uint64_t seed,
                          const ChaosOptions& options) {
  std::ostringstream os;
  os << "asyncdr_cli chaos --protocols " << protocol << " --seed-base " << seed
     << " --seeds 1 --no-shrink 1 " << options.to_flags();
  return os.str();
}

}  // namespace

ChaosRunner::ChaosRunner(SweepOptions options) : options_(std::move(options)) {
  ASYNCDR_EXPECTS_MSG(options_.seeds > 0, "SweepOptions::seeds must be > 0");
  ASYNCDR_EXPECTS_MSG(options_.max_events > 0,
                      "SweepOptions::max_events must be > 0");
}

std::vector<std::string> ChaosRunner::default_protocols() {
  return {"naive", "crash_one", "crash_multi", "committee"};
}

CaseResult ChaosRunner::run_case(const ProtocolProfile& profile,
                                 std::uint64_t seed,
                                 const ChaosOptions& options,
                                 std::size_t max_events) {
  ChaosCase cs = sample_case(profile, seed, options);
  cs.scenario.max_events = max_events;

  CaseResult out;
  out.protocol = profile.name;
  out.seed = seed;
  out.description = cs.description;
  out.report = proto::run_scenario(cs.scenario);

  const std::string violation = classify(profile, cs, out.report);
  if (violation.empty()) return out;
  if (cs.beyond_model) {
    // Outside the paper's model the guarantees don't apply; the failure is
    // recorded as graceful-degradation data, not a correctness violation.
    out.degraded = true;
  } else {
    out.violation = violation;
  }
  return out;
}

ShrunkRepro ChaosRunner::shrink_failure(const ProtocolProfile& profile,
                                        std::uint64_t seed,
                                        ChaosOptions options,
                                        std::size_t max_events,
                                        campaign::EventStream* events) {
  ShrunkRepro out;
  out.protocol = profile.name;
  out.seed = seed;

  // Accepted shrink steps stream into the campaign log (when attached), so
  // an operator tailing the JSONL sees the minimisation converge live.
  const auto emit_step = [&](const char* dimension, double value) {
    if (events == nullptr) return;
    obs::Json fields = obs::Json::object();
    fields["protocol"] = profile.name;
    fields["seed"] = seed;
    fields["dimension"] = dimension;
    fields["value"] = value;
    fields["shrink_runs"] = static_cast<std::uint64_t>(out.shrink_runs);
    events->emit("shrink_step", fields);
  };

  // Sampling only reads the caps through clamps, so tightening a cap to the
  // currently sampled value is a free first shrink step: it cannot change
  // the case, and it gives each dimension a tight starting point.
  {
    const ChaosCase cs = sample_case(profile, seed, options);
    options.n_cap = std::min(options.n_cap, cs.cfg.n);
    options.k_cap = std::min(options.k_cap, cs.cfg.k);
    if (cs.faults > 0) options.fault_cap = std::min(options.fault_cap, cs.faults);
  }

  // A candidate counts as still-failing if it produces ANY violation — the
  // classic shrinking rule: chase the smallest failure, not this failure.
  const auto still_fails = [&](const ChaosOptions& candidate,
                               std::string* violation) {
    ++out.shrink_runs;
    const CaseResult r = run_case(profile, seed, candidate, max_events);
    if (r.violation.empty()) return false;
    *violation = r.violation;
    return true;
  };

  std::string violation;
  ASYNCDR_EXPECTS_MSG(still_fails(options, &violation),
                      "shrink_failure called on a case that does not fail");

  bool progressed = true;
  while (progressed) {
    progressed = false;

    // Input length: halve toward the 16-bit floor.
    while (options.n_cap > 16) {
      ChaosOptions candidate = options;
      candidate.n_cap = std::max<std::size_t>(16, candidate.n_cap / 2);
      if (!still_fails(candidate, &violation)) break;
      options = candidate;
      progressed = true;
      emit_step("n_cap", static_cast<double>(options.n_cap));
    }

    // Peer count: halve, then single steps, toward the 3-peer floor.
    while (options.k_cap > 3) {
      ChaosOptions candidate = options;
      candidate.k_cap = std::max<std::size_t>(3, candidate.k_cap / 2);
      if (still_fails(candidate, &violation)) {
        options = candidate;
        progressed = true;
        emit_step("k_cap", static_cast<double>(options.k_cap));
        continue;
      }
      candidate = options;
      candidate.k_cap -= 1;
      if (!still_fails(candidate, &violation)) break;
      options = candidate;
      progressed = true;
      emit_step("k_cap", static_cast<double>(options.k_cap));
    }

    // Fault count: one victim at a time.
    while (options.fault_cap > 1 &&
           options.fault_cap != std::numeric_limits<std::size_t>::max()) {
      ChaosOptions candidate = options;
      candidate.fault_cap -= 1;
      if (!still_fails(candidate, &violation)) break;
      options = candidate;
      progressed = true;
      emit_step("fault_cap", static_cast<double>(options.fault_cap));
    }

    // Latency spread: halve, then snap to the fully synchronous schedule.
    while (options.latency_spread > 0) {
      ChaosOptions candidate = options;
      candidate.latency_spread =
          candidate.latency_spread < 0.05 ? 0.0 : candidate.latency_spread / 2;
      if (!still_fails(candidate, &violation)) break;
      options = candidate;
      progressed = true;
      emit_step("latency_spread", options.latency_spread);
    }
  }

  out.options = options;
  out.violation = violation;
  out.cfg = sample_case(profile, seed, options).cfg;
  out.command_line = repro_command(profile.name, seed, options);
  if (events != nullptr) {
    obs::Json fields = obs::Json::object();
    fields["protocol"] = profile.name;
    fields["seed"] = seed;
    fields["violation"] = out.violation;
    fields["shrink_runs"] = static_cast<std::uint64_t>(out.shrink_runs);
    fields["command"] = out.command_line;
    events->emit("repro", fields);
  }

  // One more run of the shrunk case with a collector and tracing attached,
  // so the repro ships with a machine-readable metrics snapshot AND the
  // causal analysis of the failure (critical path, or the critical prefix
  // when the case stalls). Observers are passive: the instrumented rerun is
  // the same execution the shrinker just classified.
  {
    ChaosCase cs = sample_case(profile, seed, options);
    cs.scenario.max_events = max_events;
    obs::RunMetricsCollector collector;
    cs.scenario.instrument = [&](dr::World& world) {
      collector.attach(world);
      world.enable_trace();
    };
    cs.scenario.post_run = [&](dr::World& world, const dr::RunReport& report) {
      out.metrics_json = collector.snapshot(world, report).dump(2);
    };
    const dr::RunReport rerun = proto::run_scenario(cs.scenario);
    if (rerun.critical_path.has_value()) {
      out.critpath_text = rerun.critical_path->to_string();
      out.critpath_json = obs::critical_path_json(*rerun.critical_path).dump(1);
      out.critpath_json.push_back('\n');
    }
  }
  return out;
}

SweepReport ChaosRunner::run() const {
  std::vector<std::string> names = options_.protocols;
  if (names.empty()) names = default_protocols();
  std::vector<const ProtocolProfile*> profiles;
  profiles.reserve(names.size());
  for (const std::string& name : names) {
    const ProtocolProfile* p = find_protocol(name);
    ASYNCDR_EXPECTS_MSG(p != nullptr, "unknown chaos protocol: " + name);
    profiles.push_back(p);
  }

  const std::size_t seeds = options_.seeds;
  const std::size_t total = profiles.size() * seeds;
  std::vector<CaseResult> results(total);

  // Fan the protocol-major grid over the campaign substrate. Each case
  // builds its own dr::World, so workers share nothing but the substrate's
  // cursor; results land at their grid index, making the report order (and
  // bytes) independent of scheduling. The substrate also carries the
  // sweep's telemetry: event stream, progress line, summary JSON.
  campaign::CampaignOptions copts;
  copts.name = "chaos";
  copts.total = total;
  copts.threads = options_.threads;
  copts.seed_base = options_.seed_base;
  const std::uint64_t seed_base = options_.seed_base;
  copts.seed_fn = [seed_base, seeds](std::size_t i) {
    return seed_base + static_cast<std::uint64_t>(i % seeds);
  };
  copts.telemetry = options_.telemetry;
  campaign::Campaign camp(std::move(copts));
  // Explicit captures: the worker's shared surface is exactly `profiles`
  // (read-only), `results` (disjoint per-index slots), and `this` (const
  // options) — auditable at a glance, nothing sneaks in by reference.
  camp.run([this, &profiles, &results, seeds](std::size_t i,
                                              std::uint64_t seed) {
    const ProtocolProfile& profile = *profiles[i / seeds];
    CaseResult r = run_case(profile, seed, options_.chaos, options_.max_events);
    campaign::RunOutcome outcome;
    outcome.label = profile.name;
    outcome.status = !r.violation.empty() ? obs::RunStatus::kFailed
                     : r.degraded         ? obs::RunStatus::kDegraded
                                          : obs::RunStatus::kOk;
    outcome.detail = r.violation;
    outcome.report = r.report;
    results[i] = std::move(r);
    return outcome;
  });

  SweepReport report;
  report.cases = total;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    std::size_t passed = 0;
    std::size_t failed = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      CaseResult& r = results[p * seeds + s];
      if (!r.violation.empty()) {
        ++failed;
        report.failures.push_back(r);
      } else {
        ++passed;
        if (r.degraded) ++report.degraded;
      }
    }
    report.passed += passed;
    report.per_protocol.emplace_back(profiles[p]->name,
                                     std::pair{passed, failed});
  }

  // Shrinking runs serially, in grid order: it is rare (failures only) and
  // determinism matters more than latency here. Shrink steps stream into
  // the campaign log before its campaign_finished terminator.
  if (options_.shrink) {
    for (const CaseResult& failure : report.failures) {
      report.repros.push_back(shrink_failure(*find_protocol(failure.protocol),
                                             failure.seed, options_.chaos,
                                             options_.max_events,
                                             camp.events()));
    }
  }
  camp.finish();
  report.cases_detail = std::move(results);
  return report;
}

std::string SweepReport::to_string(bool verbose) const {
  std::ostringstream os;
  os << "chaos sweep: " << cases << " cases, " << passed << " passed, "
     << failures.size() << " failed";
  if (degraded > 0) {
    os << " (" << degraded << " beyond-model case(s) degraded gracefully)";
  }
  os << '\n';
  for (const auto& [name, counts] : per_protocol) {
    os << "  " << name << ": " << counts.first << " passed, " << counts.second
       << " failed\n";
  }
  if (verbose) {
    for (const CaseResult& r : cases_detail) {
      os << "  "
         << (r.violation.empty() ? (r.degraded ? "DEGRADED" : "ok") : "FAIL")
         << "  " << r.description << '\n';
    }
  }
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const CaseResult& f = failures[i];
    os << "failure " << (i + 1) << ": " << f.protocol << " seed=" << f.seed
       << "\n  " << f.violation << "\n  case: " << f.description << '\n';
    if (!f.report.stall.empty()) {
      std::istringstream stall(f.report.stall);
      for (std::string line; std::getline(stall, line);) {
        os << "  | " << line << '\n';
      }
    }
    if (i < repros.size()) {
      const ShrunkRepro& r = repros[i];
      os << "  shrunk (" << r.shrink_runs << " runs) to n=" << r.cfg.n
         << " k=" << r.cfg.k << " beta=" << fmt(r.cfg.beta) << ": "
         << r.violation << "\n  repro: " << r.command_line << '\n';
    }
  }
  return os.str();
}

}  // namespace asyncdr::chaos
