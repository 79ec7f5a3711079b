// asyncdr_cli — run any protocol/adversary combination from the command
// line and print the run report. The "downstream user" tool: reproduce any
// experiment point without writing C++.
//
//   asyncdr_cli --protocol crash_multi --n 65536 --k 32 --beta 0.5
//               --adversary random --seed 7 --repeats 3
//
//   --protocol  naive | crash_one | crash_multi | committee |
//               two_cycle | multi_cycle
//   --adversary none | silent | random | staggered | partial |
//               byz_silent | byz_liar | byz_stuff | byz_comb | byz_equiv |
//               byz_rush | byz_garbage
//   --latency   fixed | uniform | seniority
//   --n --k --beta --B --seed --repeats --concentration
//   --trace N   print the first N lines of the execution trace (rep 0)
//   --phases 1  print the per-phase Q/T/M breakdown table (rep 0)
//
// Structured trace export (see DESIGN.md, "Observability"):
//
//   asyncdr_cli trace --protocol committee --seed 1 --format perfetto
//               --out committee.trace.json
//
//   --format perfetto | jsonl   Chrome trace-event JSON (load in Perfetto /
//               chrome://tracing) or one JSON object per event
//   --include-messages 1        add per-message instants to the timeline
//   --out FILE                  default: stdout
//   plus all single-run flags above (protocol, adversary, n, k, ...)
//   Perfetto exports include the critical path as flow events arcing
//   across the peer tracks.
//
// Critical-path analysis (see DESIGN.md, "Causal analysis"):
//
//   asyncdr_cli critpath --protocol committee --adversary byz_silent
//
//   runs once with tracing enabled and prints the happens-before chain
//   realizing the run's T, attributed per phase / peer / edge kind, with
//   the reconciliation verdict (path length == T exactly).
//   --format text | json        text tree (default) or JSON
//   --max-steps N               path steps rendered in text mode (def. 40)
//   --out FILE                  default: stdout
//   Exit status: 0 iff the run satisfied the Download predicate AND the
//   path reconciled against the reported T.
//
// Metrics snapshot:
//
//   asyncdr_cli metrics --protocol crash_multi --adversary random --out m.json
//
//   runs once with the standard collector attached and emits the
//   asyncdr-metrics-v2 JSON snapshot: the run's Q/T/M, phases, recovery
//   and mem pools, per-peer arrays indexed by peer id, and four
//   LogHistograms (query bits, payload bits, latency, event-queue depth).
//
// Memory profile (see DESIGN.md, "Memory observability"):
//
//   asyncdr_cli memprof --protocol crash_multi --k 4096 --format json
//
//   runs once and prints the per-subsystem byte breakdown (modeled bytes;
//   deterministic) next to the measured peak-RSS delta, with the fraction
//   of the measured peak the accounting attributes. The unattributed-memory
//   tripwire fails the command when that fraction falls below the floor.
//   --format text | json        breakdown table (default) or JSON (which
//                               also carries the epoch-sampled timeline)
//   --min-attributed F          tripwire floor (default 0.8); the check is
//                               skipped — and says so — when RSS cannot be
//                               measured or the run is too small for the
//                               delta to mean anything (< 16 MiB)
//   --out FILE                  default: stdout
//   plus all single-run flags above (protocol, adversary, n, k, ...)
//   Exit status: 0 iff the run satisfied the Download predicate and the
//   tripwire (when enforced) passed.
//
// Chaos sweeps (see DESIGN.md, "Chaos layer"):
//
//   asyncdr_cli chaos --seeds 200
//   asyncdr_cli chaos --protocols committee --seeds 50
//               --inject-bug committee-threshold
//
//   --protocols  comma-separated registry names (default: the deterministic
//                grid naive,crash_one,crash_multi,committee)
//   --seeds --seed-base --threads --max-events
//   --n-cap --k-cap --fault-cap --latency-spread   sampling caps (the knobs
//                the shrinker tightens; a shrunk repro is replayed by
//                pasting its emitted flags here)
//   --beyond-model 1    add duplication/burst stressors (degradation mode)
//   --recovery 1        crash-recovery cases on recoverable protocols
//                       (restarts, crash-point kills, journal corruption)
//   --inject-bug committee-threshold   arm the planted off-by-one
//   --no-shrink 1       report failures without shrinking them
//   --verbose 1         list every case, not just failures
//   --progress 1        live stderr progress line (runs, rate, ETA, worst)
//   --events FILE       append-only JSONL campaign event stream
//   --summary FILE      deterministic campaign summary JSON
//   --timing 1          add the machine-dependent timing section to --summary
//   --artifact-dir DIR  write each shrunk failure's metrics snapshot to
//                       DIR/chaos_metrics_<i>.json plus its critical-path
//                       analysis to DIR/chaos_critpath_<i>.{txt,json}
//                       (CI uploads these)
//
// Exit status: 0 if the sweep had no violations, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <map>
#include <string>

#include "chaos/runner.hpp"
#include "common/table.hpp"
#include "obs/collect.hpp"
#include "obs/export.hpp"
#include "protocols/bounds.hpp"
#include "protocols/runner.hpp"

namespace {

using namespace asyncdr;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of examples/asyncdr_cli.cpp "
               "for flags\n", msg);
  std::exit(2);
}

struct Args {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback
                          : static_cast<std::size_t>(std::stoull(it->second));
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stod(it->second);
  }
};

Args parse(int argc, char** argv, int start = 1) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) usage(("unexpected argument: " + flag).c_str());
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    args.kv[flag.substr(2)] = argv[++i];
  }
  return args;
}

/// The single-run flags resolved into a ready-to-run Scenario. Shared by the
/// default run path and the trace/metrics subcommands so a timeline or a
/// metrics snapshot always describes exactly the run the flags name.
struct SpecResult {
  proto::Scenario scenario;
  std::size_t bound = 0;
  std::string protocol;
  std::string adversary;
  std::string latency;
};

SpecResult build_scenario(const Args& args, std::size_t rep) {
  SpecResult out;
  dr::Config cfg;
  cfg.n = args.get_size("n", 1 << 14);
  cfg.k = args.get_size("k", 32);
  cfg.beta = args.get_double("beta", 0.25);
  cfg.message_bits = args.get_size("B", 1024);
  cfg.seed = args.get_size("seed", 1);
  const double concentration = args.get_double("concentration", 2.0);

  out.protocol = args.get("protocol", "crash_multi");
  out.adversary = args.get("adversary", "none");
  out.latency = args.get("latency", "uniform");

  proto::Scenario& s = out.scenario;
  s.cfg = cfg;
  s.cfg.seed = cfg.seed + rep;

  if (out.protocol == "naive") {
    s.honest = proto::make_naive();
    out.bound = proto::bounds::naive_q(cfg);
  } else if (out.protocol == "crash_one") {
    s.honest = proto::make_crash_one();
    out.bound = proto::bounds::crash_one_q(cfg);
  } else if (out.protocol == "crash_multi") {
    s.honest = proto::make_crash_multi();
    out.bound = proto::bounds::crash_multi_q(cfg);
  } else if (out.protocol == "committee") {
    s.honest = proto::make_committee();
    out.bound = proto::bounds::committee_q(cfg);
  } else if (out.protocol == "two_cycle") {
    s.honest = proto::make_two_cycle(concentration);
    out.bound = proto::bounds::two_cycle_q(
        cfg, proto::RandParams::derive(cfg, concentration));
  } else if (out.protocol == "multi_cycle") {
    s.honest = proto::make_multi_cycle(concentration);
    out.bound = proto::bounds::multi_cycle_q(
        cfg, proto::RandParams::derive(cfg, concentration));
  } else {
    usage(("unknown protocol: " + out.protocol).c_str());
  }

  const std::size_t t = s.cfg.max_faulty();
  Rng rng(s.cfg.seed * 31 + 5);
  if (out.adversary == "none") {
  } else if (out.adversary == "silent") {
    s.crashes = adv::CrashPlan::silent_prefix(t);
  } else if (out.adversary == "random") {
    s.crashes = adv::CrashPlan::random(s.cfg, rng, t, 10.0);
  } else if (out.adversary == "staggered") {
    s.crashes = adv::CrashPlan::staggered(s.cfg, rng, t, 2.0);
  } else if (out.adversary == "partial") {
    s.crashes = adv::CrashPlan::partial_broadcast(s.cfg, rng, t, 3);
  } else if (out.adversary.rfind("byz_", 0) == 0) {
    if (out.adversary == "byz_silent") {
      s.byzantine = proto::make_silent_byz();
    } else if (out.adversary == "byz_liar") {
      s.byzantine =
          proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
    } else if (out.adversary == "byz_stuff") {
      s.byzantine = proto::make_vote_stuffer(concentration, 0);
    } else if (out.adversary == "byz_comb") {
      s.byzantine = proto::make_comb_stuffer(concentration, 0);
    } else if (out.adversary == "byz_equiv") {
      s.byzantine = proto::make_equivocator(concentration);
    } else if (out.adversary == "byz_rush") {
      s.byzantine = proto::make_quorum_rusher(concentration);
    } else if (out.adversary == "byz_garbage") {
      s.byzantine = proto::make_garbage_byz();
    } else {
      usage(("unknown adversary: " + out.adversary).c_str());
    }
    s.byz_ids = proto::pick_faulty(s.cfg, t, rep);
  } else {
    usage(("unknown adversary: " + out.adversary).c_str());
  }

  if (out.latency == "fixed") {
    s.latency = proto::fixed_latency(1.0);
  } else if (out.latency == "uniform") {
    s.latency = proto::uniform_latency(0.05, 1.0);
  } else if (out.latency == "seniority") {
    s.latency = proto::seniority_latency();
  } else {
    usage(("unknown latency: " + out.latency).c_str());
  }
  return out;
}

void write_output(const Args& args, const std::string& content) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return;
  }
  std::ofstream f(out, std::ios::binary);
  if (!f) usage(("cannot open --out file: " + out).c_str());
  f << content;
  std::fprintf(stderr, "wrote %zu bytes to %s\n", content.size(), out.c_str());
}

int run_trace_export(int argc, char** argv) {
  const Args args = parse(argc, argv, 2);
  SpecResult spec = build_scenario(args, 0);
  const std::string format = args.get("format", "perfetto");
  if (format != "perfetto" && format != "jsonl") {
    usage(("unknown --format: " + format).c_str());
  }

  std::string rendered;
  spec.scenario.instrument = [](dr::World& world) { world.enable_trace(); };
  spec.scenario.post_run = [&](dr::World& world, const dr::RunReport& report) {
    if (format == "perfetto") {
      obs::PerfettoOptions opts;
      opts.include_messages = args.get_size("include-messages", 0) != 0;
      // Traced runs carry the critical path (run_scenario embeds it);
      // export its link edges as flow events over the peer tracks.
      if (report.critical_path.has_value()) {
        opts.critical_path = &*report.critical_path;
      }
      // The per-pool byte timeline rides along as counter tracks so the
      // memory profile lines up under the peer tracks.
      opts.mem_timeline = &world.mem_timeline();
      rendered = obs::to_perfetto(*world.trace(), report.phase_spans,
                                  world.config().k, opts)
                     .dump(1);
      rendered.push_back('\n');
    } else {
      rendered = obs::to_jsonl(*world.trace());
    }
  };
  proto::run_scenario(spec.scenario);
  write_output(args, rendered);
  return 0;
}

int run_critpath(int argc, char** argv) {
  const Args args = parse(argc, argv, 2);
  SpecResult spec = build_scenario(args, 0);
  const std::string format = args.get("format", "text");
  if (format != "text" && format != "json") {
    usage(("unknown --format: " + format).c_str());
  }

  spec.scenario.instrument = [](dr::World& world) { world.enable_trace(); };
  const dr::RunReport report = proto::run_scenario(spec.scenario);
  if (!report.critical_path.has_value()) {
    std::fprintf(stderr, "error: the run produced no critical path\n");
    return 1;
  }
  const obs::CriticalPathReport& path = *report.critical_path;

  std::string rendered;
  if (format == "json") {
    rendered = obs::critical_path_json(path).dump(1);
    rendered.push_back('\n');
  } else {
    rendered = report.to_string();
    rendered.push_back('\n');
    rendered += path.to_string(args.get_size("max-steps", 40));
    if (!report.stall.empty()) rendered += report.stall;
  }
  write_output(args, rendered);
  return report.ok() && path.reconciled ? 0 : 1;
}

int run_metrics(int argc, char** argv) {
  const Args args = parse(argc, argv, 2);
  SpecResult spec = build_scenario(args, 0);

  obs::RunMetricsCollector collector;
  obs::Json snapshot;
  spec.scenario.instrument = [&](dr::World& world) { collector.attach(world); };
  spec.scenario.post_run = [&](dr::World& world, const dr::RunReport& report) {
    snapshot = collector.snapshot(world, report);
  };
  const dr::RunReport report = proto::run_scenario(spec.scenario);
  write_output(args, snapshot.dump(2) + "\n");
  return report.ok() ? 0 : 1;
}

int run_memprof(int argc, char** argv) {
  const Args args = parse(argc, argv, 2);
  SpecResult spec = build_scenario(args, 0);
  const std::string format = args.get("format", "text");
  if (format != "text" && format != "json") {
    usage(("unknown --format: " + format).c_str());
  }
  const double min_attributed = args.get_double("min-attributed", 0.8);

  // Modeled numbers from the run; the tracker brackets the run itself so
  // scenario construction and the measurement line up.
  std::vector<obs::MemPoolStats> pools;
  std::uint64_t total_peak = 0;
  obs::MemTimeline timeline;
  spec.scenario.post_run = [&](dr::World& world, const dr::RunReport& report) {
    pools = report.mem_pools;
    total_peak = report.mem_total_peak;
    timeline = world.mem_timeline();
  };

  obs::RssTracker tracker;
  tracker.begin();
  const dr::RunReport report = proto::run_scenario(spec.scenario);
  const std::uint64_t rss_delta = tracker.peak_delta_bytes();

  // The tripwire only means something when the measured delta is real: a
  // tiny run disappears into allocator arena granularity, and a failed
  // measurement has no denominator at all.
  constexpr std::uint64_t kMinMeaningfulDelta = 16ull << 20;
  const bool measurable =
      tracker.mechanism() != obs::RssTracker::Mechanism::kUnavailable;
  const bool enforced = measurable && rss_delta >= kMinMeaningfulDelta;
  const double fraction =
      rss_delta > 0 ? static_cast<double>(total_peak) /
                          static_cast<double>(rss_delta)
                    : 0.0;
  const bool tripwire_ok = !enforced || fraction >= min_attributed;
  const char* skip_reason =
      enforced ? ""
               : (measurable ? "rss delta below 16 MiB floor"
                             : "rss measurement unavailable");

  std::string rendered;
  if (format == "json") {
    obs::Json doc = obs::Json::object();
    doc["protocol"] = spec.protocol;
    doc["adversary"] = spec.adversary;
    doc["k"] = static_cast<std::uint64_t>(spec.scenario.cfg.k);
    doc["n"] = static_cast<std::uint64_t>(spec.scenario.cfg.n);
    obs::Json pool_obj = obs::Json::object();
    for (const obs::MemPoolStats& p : pools) {
      obs::Json entry = obs::Json::object();
      entry["current_bytes"] = p.current;
      entry["peak_bytes"] = p.peak;
      pool_obj[p.name] = std::move(entry);
    }
    doc["pools"] = std::move(pool_obj);
    doc["total_peak_bytes"] = total_peak;
    obs::Json rss = obs::Json::object();
    rss["mechanism"] = std::string(tracker.mechanism_name());
    rss["peak_delta_bytes"] = rss_delta;
    doc["rss"] = std::move(rss);
    doc["attributed_fraction"] = fraction;
    obs::Json trip = obs::Json::object();
    trip["min_attributed"] = min_attributed;
    trip["enforced"] = enforced;
    trip["ok"] = tripwire_ok;
    if (!enforced) trip["skipped"] = std::string(skip_reason);
    doc["tripwire"] = std::move(trip);
    obs::Json tl = obs::Json::object();
    obs::Json tl_pools = obs::Json::array();
    for (const std::string& name : timeline.pools) tl_pools.push_back(name);
    tl["pools"] = std::move(tl_pools);
    obs::Json samples = obs::Json::array();
    for (const obs::MemTimeline::Sample& s : timeline.samples) {
      obs::Json row = obs::Json::object();
      row["events"] = s.events;
      row["at"] = s.at;
      obs::Json bytes = obs::Json::array();
      for (std::uint64_t b : s.bytes) bytes.push_back(b);
      row["bytes"] = std::move(bytes);
      samples.push_back(std::move(row));
    }
    tl["samples"] = std::move(samples);
    doc["timeline"] = std::move(tl);
    rendered = doc.dump(1);
    rendered.push_back('\n');
  } else {
    Table table({"pool", "current bytes", "peak bytes"});
    for (const obs::MemPoolStats& p : pools) {
      table.add(p.name, static_cast<std::size_t>(p.current),
                static_cast<std::size_t>(p.peak));
    }
    rendered = spec.scenario.cfg.to_string() + "  protocol=" + spec.protocol +
               " adversary=" + spec.adversary + "\n" + table.render();
    char line[256];
    std::snprintf(line, sizeof line,
                  "total peak (simultaneous): %llu bytes\n"
                  "measured peak rss delta:   %llu bytes (%s)\n"
                  "attributed fraction:       %.3f (floor %.2f, %s)\n",
                  static_cast<unsigned long long>(total_peak),
                  static_cast<unsigned long long>(rss_delta),
                  tracker.mechanism_name(), fraction, min_attributed,
                  enforced ? (tripwire_ok ? "ok" : "TRIPPED") : skip_reason);
    rendered += line;
  }
  write_output(args, rendered);
  if (!report.ok()) return 1;
  return tripwire_ok ? 0 : 1;
}

int run_chaos(int argc, char** argv) {
  const Args args = parse(argc, argv, 2);

  chaos::SweepOptions options;
  const std::string protocols = args.get("protocols", "");
  for (std::size_t pos = 0; pos < protocols.size();) {
    const std::size_t comma = protocols.find(',', pos);
    const std::size_t end = comma == std::string::npos ? protocols.size() : comma;
    if (end > pos) options.protocols.push_back(protocols.substr(pos, end - pos));
    pos = end + 1;
  }
  options.seed_base = args.get_size("seed-base", options.seed_base);
  options.seeds = args.get_size("seeds", options.seeds);
  if (options.seeds == 0) usage("--seeds must be > 0");
  options.threads = args.get_size("threads", 0);
  options.max_events = args.get_size("max-events", options.max_events);
  options.shrink = args.get_size("no-shrink", 0) == 0;

  options.chaos.n_cap = args.get_size("n-cap", options.chaos.n_cap);
  options.chaos.k_cap = args.get_size("k-cap", options.chaos.k_cap);
  options.chaos.fault_cap = args.get_size("fault-cap", options.chaos.fault_cap);
  options.chaos.latency_spread =
      args.get_double("latency-spread", options.chaos.latency_spread);
  options.chaos.beyond_model = args.get_size("beyond-model", 0) != 0;
  options.chaos.recovery = args.get_size("recovery", 0) != 0;

  options.telemetry.progress = args.get_size("progress", 0) != 0;
  options.telemetry.events_path = args.get("events", "");
  options.telemetry.summary_path = args.get("summary", "");
  options.telemetry.include_timing = args.get_size("timing", 0) != 0;
  const std::string bug = args.get("inject-bug", "");
  if (bug == "committee-threshold") {
    options.chaos.inject_committee_bug = true;
  } else if (!bug.empty()) {
    usage(("unknown --inject-bug: " + bug).c_str());
  }

  for (const std::string& name : options.protocols) {
    if (chaos::find_protocol(name) == nullptr) {
      usage(("unknown chaos protocol: " + name).c_str());
    }
  }

  const chaos::SweepReport report = chaos::ChaosRunner(options).run();
  std::printf("%s", report.to_string(args.get_size("verbose", 0) != 0).c_str());

  const std::string artifact_dir = args.get("artifact-dir", "");
  if (!artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(artifact_dir, ec);
    if (ec) {
      std::fprintf(stderr, "warning: cannot create %s: %s\n",
                   artifact_dir.c_str(), ec.message().c_str());
    }
    const auto write_artifact = [](const std::string& path,
                                   const std::string& content,
                                   const char* what) {
      std::ofstream f(path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
      }
      f << content;
      std::fprintf(stderr, "wrote %s: %s\n", what, path.c_str());
    };
    for (std::size_t i = 0; i < report.repros.size(); ++i) {
      const chaos::ShrunkRepro& repro = report.repros[i];
      const std::string stem = artifact_dir + "/chaos_";
      if (!repro.metrics_json.empty()) {
        write_artifact(stem + "metrics_" + std::to_string(i) + ".json",
                       repro.metrics_json + "\n", "failure metrics");
      }
      if (!repro.critpath_text.empty()) {
        write_artifact(stem + "critpath_" + std::to_string(i) + ".txt",
                       repro.critpath_text, "failure critical path");
      }
      if (!repro.critpath_json.empty()) {
        write_artifact(stem + "critpath_" + std::to_string(i) + ".json",
                       repro.critpath_json, "failure critical path");
      }
    }
  }
  return report.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "chaos") == 0) {
    return run_chaos(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    return run_trace_export(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "critpath") == 0) {
    return run_critpath(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "metrics") == 0) {
    return run_metrics(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "memprof") == 0) {
    return run_memprof(argc, argv);
  }
  const Args args = parse(argc, argv);
  const std::size_t repeats = args.get_size("repeats", 1);
  const std::size_t trace_lines = args.get_size("trace", 0);
  const bool show_phases = args.get_size("phases", 0) != 0;

  Table table({"rep", "ok", "Q", "Q bound", "T", "M", "events"});
  std::size_t failures = 0;
  SpecResult spec;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    spec = build_scenario(args, rep);
    if (rep == 0 && trace_lines > 0) {
      spec.scenario.instrument = [](dr::World& world) { world.enable_trace(); };
      spec.scenario.post_run = [&](dr::World& world, const dr::RunReport&) {
        std::printf("%s", world.trace()->render(sim::kNoPeer, trace_lines).c_str());
      };
    }
    const dr::RunReport report = proto::run_scenario(spec.scenario);
    if (rep == 0 && show_phases) {
      std::printf("%s", report.phase_table().c_str());
    }
    if (!report.ok()) ++failures;
    table.add(rep, report.ok(), report.query_complexity, spec.bound,
              report.time_complexity, report.message_complexity,
              report.events);
  }

  std::printf("%s  protocol=%s adversary=%s latency=%s\n",
              spec.scenario.cfg.to_string().c_str(), spec.protocol.c_str(),
              spec.adversary.c_str(), spec.latency.c_str());
  table.print();
  return failures == 0 ? 0 : 1;
}
