// perfbench: the repository benchmark. Runs one workload for a fixed time
// budget and prints its metrics as one JSON object on the last line of
// standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workers <w>] [--spans <file>]
//
// A pass runs every world of the workload once through proto::run_scenario;
// passes repeat until the budget is spent. --trace 0 reports the
// end-to-end metrics, each the median over the passes. --trace 1
// alternates untraced and traced passes and reports the per-layer metrics:
// medians over the traced passes, which alone attach probes to the worlds,
// plus world-time percentiles over the untraced ones.
// --workers overrides the campaign width of recovery-campaign (the
// fingerprint must not depend on it). --spans writes the traced passes'
// spans when the run ends.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace asyncdr;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::size_t workers = 0;  ///< 0: the workload's own width
  std::string spans_path;
};

/// One world as the benchmark saw it from outside run_scenario.
struct WorldRun {
  dr::RunReport report;
  // Wall-clock marks: call, input ready, instrument hook, post_run hook,
  // return of run_scenario.
  double t_begin = 0, t_input = 0, t_instrument = 0, t_post = 0, t_end = 0;
  double input_cpu = 0;     ///< thread CPU generating the input
  double assemble_cpu = 0;  ///< thread CPU from run_scenario to instrument
  std::thread::id thread;
  // Traced runs only.
  LayerCounters counters;
  std::size_t active_links = 0;
  std::uint64_t intern_hits = 0;

  [[nodiscard]] double setup_cpu() const { return input_cpu + assemble_cpu; }
  [[nodiscard]] double wall() const { return t_end - t_begin; }
  [[nodiscard]] double run_wall() const { return t_post - t_instrument; }
  [[nodiscard]] double teardown_wall() const { return t_end - t_post; }
};

struct Pass {
  bool traced = false;
  double start = 0, end = 0;
  double cpu_s = 0;  ///< process user + system CPU over the pass
  /// Process peak RSS (VmHWM) at the end of the pass, in MiB. Later passes
  /// add allocator fragmentation on top of the first one's peak.
  double rss_mb = 0;
  std::size_t workers = 1;
  std::vector<WorldRun> worlds;

  [[nodiscard]] double wall_s() const { return end - start; }
};

WorldRun run_world(const WorldSpec& spec, bool traced) {
  WorldRun r;
  r.thread = std::this_thread::get_id();
  proto::Scenario s = spec.scenario;
  r.t_begin = wall_now();
  const double cpu0 = thread_cpu_now();
  s.input = proto::random_input(s.cfg.n, s.cfg.seed);
  const double cpu1 = thread_cpu_now();
  r.input_cpu = cpu1 - cpu0;
  r.t_input = wall_now();

  NetworkProbe probe(r.counters);
  if (traced) {
    s.latency = [inner = s.latency,
                 counters = &r.counters](const dr::Config& cfg) {
      return std::make_unique<TimedLatency>(inner(cfg), *counters);
    };
  }
  s.instrument = [&r, &probe, cpu1, traced](dr::World& world) {
    r.assemble_cpu = thread_cpu_now() - cpu1;
    r.t_instrument = wall_now();
    if (!traced) return;
    world.add_observer(&probe);
    LayerCounters* counters = &r.counters;
    world.add_query_listener([counters](sim::PeerId, std::size_t bits) {
      ++counters->query_calls;
      counters->bits_queried += bits;
    });
  };
  s.post_run = [&r, traced](dr::World& world, const dr::RunReport&) {
    r.t_post = wall_now();
    if (!traced) return;
    r.active_links = world.network().active_links();
    r.intern_hits = world.network().payload_bank().interned_payloads();
  };
  r.report = proto::run_scenario(s);
  r.t_end = wall_now();
  // Per-peer outputs are k arrays of n bits; nothing downstream reads them.
  r.report.outputs.clear();
  r.report.phase_spans.clear();
  return r;
}

Pass run_pass(const Workload& w, std::size_t workers, bool traced) {
  Pass pass;
  pass.traced = traced;
  pass.workers = std::max<std::size_t>(workers, 1);
  pass.worlds.resize(w.worlds.size());
  const double cpu0 = process_cpu_now();
  pass.start = wall_now();
  if (workers == 0) {
    for (std::size_t i = 0; i < w.worlds.size(); ++i) {
      pass.worlds[i] = run_world(w.worlds[i], traced);
    }
  } else {
    campaign::CampaignOptions opts;
    opts.name = w.name;
    opts.total = w.worlds.size();
    opts.threads = workers;
    opts.seed_fn = [&w](std::size_t i) {
      return w.worlds[i].scenario.cfg.seed;
    };
    campaign::Campaign camp(std::move(opts));
    camp.run([&](std::size_t i, std::uint64_t) {
      pass.worlds[i] = run_world(w.worlds[i], traced);
      campaign::RunOutcome out;
      out.label = w.worlds[i].label;
      out.report = pass.worlds[i].report;
      out.status =
          out.report.ok() ? obs::RunStatus::kOk : obs::RunStatus::kFailed;
      return out;
    });
    camp.finish();
  }
  pass.end = wall_now();
  pass.cpu_s = process_cpu_now() - cpu0;
  pass.rss_mb = peak_rss_mb();
  return pass;
}

/// FNV-1a over every world's label and RunReport::to_string(), in workload
/// order: equal fingerprints mean every simulated statistic is unchanged.
std::uint64_t fingerprint(const Workload& w, const Pass& pass) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  };
  for (std::size_t i = 0; i < pass.worlds.size(); ++i) {
    mix(w.worlds[i].label);
    mix(pass.worlds[i].report.to_string());
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// End-to-end metrics over the untraced passes.
Metrics end_to_end(const std::vector<const Pass*>& passes) {
  std::vector<double> wall, cpu, setup;
  for (const Pass* p : passes) {
    wall.push_back(p->wall_s());
    cpu.push_back(p->cpu_s);
    double s = 0;
    for (const WorldRun& r : p->worlds) s += r.setup_cpu();
    setup.push_back(s);
  }
  return {
      {"wall_s", {median(wall), "s"}},
      {"cpu_s", {median(cpu), "s"}},
      {"setup_s", {median(setup), "s"}},
      // One pass is what a user regenerating the artifact runs.
      {"peak_rss_mb", {passes.front()->rss_mb, "MB"}},
  };
}

/// World wall-time percentiles over the untraced passes. They are per-layer
/// (campaign) figures: only recovery-campaign has enough worlds for them.
Metrics world_percentiles(const std::vector<const Pass*>& passes) {
  std::vector<double> world;
  for (const Pass* p : passes) {
    for (const WorldRun& r : p->worlds) world.push_back(r.wall());
  }
  return {{"campaign.world_s_p50", {percentile(world, 0.5), "s"}},
          {"campaign.world_s_p90", {percentile(world, 0.9), "s"}}};
}

/// Honest protocols whose share of run time is reported per layer: the
/// five Table 1 rows plus Algorithm 1 (recovery-campaign's R1).
const char* const kProtocols[] = {"naive",       "committee",   "two_cycle",
                                  "multi_cycle", "crash_multi", "crash_one"};

/// Memory pools whose per-world peak is reported (the world's registry
/// also holds obs.trace, which stays empty without World::enable_trace).
const char* const kPools[] = {"sim.engine.heap",   "sim.network.links",
                              "sim.network.fanout", "sim.msg.payloads",
                              "dr.peer.state",      "dr.source",
                              "dr.journal"};

/// Per-layer metrics of one traced pass.
Metrics layers(const Workload& w, const Pass& pass) {
  Metrics m;
  const auto sum = [&m](const std::string& name, double v, const char* unit) {
    Metric& x = m[name];
    x.value += v;
    x.unit = unit;
  };
  const auto count = [&sum](const std::string& name, std::uint64_t v) {
    sum(name, static_cast<double>(v), "count");
  };
  const auto peak = [&m](const std::string& name, double v) {
    Metric& x = m[name];
    x.value = std::max(x.value, v);
    x.unit = "bytes";
  };
  std::map<std::thread::id, double> busy;
  std::map<std::string, double> protocol_run;
  double run_total = 0;
  for (std::size_t i = 0; i < pass.worlds.size(); ++i) {
    const WorldRun& r = pass.worlds[i];
    const dr::RunReport& rep = r.report;
    const LayerCounters& c = r.counters;
    sum("common.random_input_s", r.input_cpu, "s");
    sum("dr.world.assemble_s", r.assemble_cpu, "s");
    sum("dr.world.run_s", r.run_wall(), "s");
    sum("dr.world.teardown_s", r.teardown_wall(), "s");
    count("sim.engine.events", rep.events);
    count("sim.network.sends", c.sends);
    count("sim.network.unit_messages", c.unit_messages);
    count("sim.network.deliveries", c.deliveries);
    count("sim.network.drops", c.drops);
    count("sim.network.active_links", r.active_links);
    count("sim.payload_bank.intern_hits", r.intern_hits);
    count("adversary.latency_calls", c.latency_calls);
    sum("adversary.latency_s", c.latency_s, "s");
    count("dr.source.query_calls", c.query_calls);
    count("dr.source.bits_queried", c.bits_queried);
    count("dr.journal.restarts", rep.recovery.restarts);
    count("dr.journal.replays", rep.recovery.journal_replays);
    count("dr.journal.bits_recovered", rep.recovery.bits_recovered);
    count("dr.journal.queries_saved", rep.recovery.queries_saved);
    count("protocols.q_bits", rep.query_complexity);
    sum("protocols.t_virtual", rep.time_complexity, "time_units");
    count("protocols.m_units", rep.message_complexity);
    count("protocols.phases_entered", rep.phases.size());
    for (const char* pool : kPools) {
      peak(std::string("mem.") + pool + ".peak_bytes", 0);
    }
    for (const obs::MemPoolStats& pool : rep.mem_pools) {
      const std::string name = "mem." + pool.name + ".peak_bytes";
      if (m.contains(name)) peak(name, static_cast<double>(pool.peak));
    }
    peak("mem.total_peak_bytes", static_cast<double>(rep.mem_total_peak));
    busy[r.thread] += r.wall();
    protocol_run[w.worlds[i].protocol] += r.run_wall();
    run_total += r.run_wall();
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto of = [&m](const char* name) { return m[name].value; };
  m["sim.engine.ns_per_event"] = {
      1e9 * ratio(of("dr.world.run_s"), of("sim.engine.events")), "ns"};
  m["sim.network.deliveries_per_send"] = {
      ratio(of("sim.network.deliveries"), of("sim.network.sends")), "ratio"};
  m["sim.payload_bank.hit_ratio"] = {
      ratio(of("sim.payload_bank.intern_hits"), of("sim.network.sends")),
      "ratio"};
  for (const char* p : kProtocols) {
    m[std::string("protocols.") + p + ".run_share"] = {
        ratio(protocol_run[p], run_total), "ratio"};
  }
  double busy_sum = 0, busy_max = 0;
  for (const auto& [id, b] : busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double capacity = static_cast<double>(pass.workers) * pass.wall_s();
  m["campaign.busy_frac"] = {ratio(busy_sum, capacity), "ratio"};
  m["campaign.worker_imbalance"] = {
      ratio(busy_max * static_cast<double>(busy.size()), busy_sum), "ratio"};
  const double rss_bytes = pass.rss_mb * 1024.0 * 1024.0;
  const double attributed = ratio(of("mem.total_peak_bytes"), rss_bytes);
  m["obs.mem.unattributed_frac"] = {std::max(0.0, 1.0 - attributed), "ratio"};
  return m;
}

/// Median of every metric over several passes' metric sets.
Metrics median_of(const std::vector<Metrics>& sets) {
  Metrics out;
  for (const auto& [name, metric] : sets.front()) {
    std::vector<double> v;
    for (const Metrics& s : sets) v.push_back(s.at(name).value);
    out[name] = {median(v), metric.unit};
  }
  return out;
}

std::vector<Span> spans_of(const Workload& w, const Pass& pass) {
  std::vector<Span> spans;
  spans.push_back({"workload", w.name, pass.start, pass.end, -1});
  for (std::size_t i = 0; i < pass.worlds.size(); ++i) {
    const WorldRun& r = pass.worlds[i];
    const std::string& label = w.worlds[i].label;
    spans.push_back({"world", label, r.t_begin, r.t_end, 0});
    const auto world = static_cast<std::int64_t>(spans.size() - 1);
    spans.push_back({"input", label, r.t_begin, r.t_input, world});
    spans.push_back({"assemble", label, r.t_input, r.t_instrument, world});
    spans.push_back({"run", label, r.t_instrument, r.t_post, world});
    spans.push_back({"teardown", label, r.t_post, r.t_end, world});
  }
  return spans;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (flag == "--workers") {
      a.workers = std::stoul(value);
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  if (args.workers > 0 && w.workers == 0) {
    std::fprintf(stderr, "perfbench: %s runs without a campaign; --workers "
                         "does not apply\n", w.name.c_str());
    return 2;
  }
  const std::size_t workers = args.workers > 0 ? args.workers : w.workers;

  // Untraced and traced passes alternate under --trace 1, so both see the
  // same machine state. The run ends once the budget is spent and, when
  // tracing, a traced pass has followed each untraced one.
  std::vector<Pass> passes;
  const double t0 = wall_now();
  for (std::size_t k = 0;; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    passes.push_back(run_pass(w, workers, traced));
    const Pass& p = passes.back();
    double setup = 0;
    std::string walls;
    for (const WorldRun& r : p.worlds) {
      setup += r.setup_cpu();
      if (p.worlds.size() <= 8) walls += " " + number(r.wall());
    }
    std::printf(
        "pass %zu traced=%d wall_s=%.4f cpu_s=%.4f setup_s=%.6f "
        "worlds_s=[%s ]\n",
        k, traced ? 1 : 0, p.wall_s(), p.cpu_s, setup, walls.c_str());
    if ((traced || !args.trace) && wall_now() - t0 >= args.seconds) break;
  }

  // Correctness: every world of every pass, and one fingerprint for all.
  std::size_t attempted = 0, failed = 0;
  std::set<std::uint64_t> prints;
  for (const Pass& pass : passes) {
    std::vector<dr::RunReport> reports;
    for (const WorldRun& r : pass.worlds) reports.push_back(r.report);
    for (std::size_t i = 0; i < pass.worlds.size(); ++i) {
      ++attempted;
      const std::vector<std::string> why = check_world(w, i, reports);
      if (why.empty()) continue;
      ++failed;
      for (const std::string& reason : why) {
        std::printf("FAIL %s: %s\n", w.worlds[i].label.c_str(), reason.c_str());
      }
    }
    prints.insert(fingerprint(w, pass));
  }
  const bool correct = failed == 0 && prints.size() == 1;

  const Pass& first = passes.front();
  for (std::size_t i = 0; i < first.worlds.size(); ++i) {
    const dr::RunReport& r = first.worlds[i].report;
    std::printf("world %-26s Q=%zu bound=%zu T=%.4f M=%llu events=%zu "
                "rounds=%zu wall_s=%.4f\n",
                w.worlds[i].label.c_str(), r.query_complexity,
                w.worlds[i].q_bound, r.time_complexity,
                static_cast<unsigned long long>(r.message_complexity), r.events,
                rounds_entered(r), first.worlds[i].wall());
  }

  std::vector<const Pass*> plain;
  std::vector<Metrics> traced_sets;
  std::vector<double> plain_cpu, traced_cpu;
  std::vector<Span> spans;
  for (const Pass& pass : passes) {
    if (!pass.traced) {
      plain.push_back(&pass);
      plain_cpu.push_back(pass.cpu_s);
      continue;
    }
    traced_sets.push_back(layers(w, pass));
    traced_cpu.push_back(pass.cpu_s);
    const std::vector<Span> s = spans_of(w, pass);
    const auto base = static_cast<std::int64_t>(spans.size());
    for (Span span : s) {
      if (span.parent >= 0) span.parent += base;
      spans.push_back(span);
    }
  }

  Metrics metrics;
  if (args.trace) {
    metrics = median_of(traced_sets);
    metrics.merge(world_percentiles(plain));
    const double untraced = median(plain_cpu);
    const double overhead =
        untraced > 0 ? (median(traced_cpu) - untraced) / untraced : 0.0;
    metrics["perfbench.trace_overhead_frac"] = {overhead, "ratio"};
    if (!args.spans_path.empty() && !write_spans(args.spans_path, spans, t0)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  } else {
    metrics = end_to_end(plain);
  }

  std::size_t world_samples = 0;
  for (const Pass* p : plain) world_samples += p->worlds.size();
  char print[32];
  std::snprintf(print, sizeof(print), "%016llx",
                static_cast<unsigned long long>(*prints.begin()));
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"workers\":%zu,"
              "\"fingerprint\":\"%s\",\"fingerprints\":%zu,\"passes\":%zu,"
              "\"traced_passes\":%zu,\"world_samples\":%zu}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              workers, print, prints.size(), plain.size(), traced_sets.size(),
              world_samples);

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool sep = false;
  for (const auto& [name, metric] : metrics) {
    if (sep) out += ", ";
    sep = true;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--workers <w>] "
                   "[--spans <file>]\n");
      return 2;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
