// Experiment S — substrate scaling sweep. Not a paper artifact: this bench
// pins the simulation substrate itself (pooled 4-ary event heap, lazy
// per-sender link rows, bucketed broadcast fan-out) against k, where the
// pre-rework substrate allocated Theta(k^2) link vectors up front and
// scheduled one engine event per broadcast recipient.
//
// Regenerated series: the k-sweep {64, 256, 1024, 4096, 16384, 65536} of
// Algorithm 2 (crash_multi) under a silent-prefix crash plan and
// FixedLatency (the bucketing-maximal schedule), recording Q/T/M plus
// substrate-side metrics: engine events, active directed links (vs the
// dense k^2), wall clock, peak RSS and the modeled memory breakdown.
//
// ASYNCDR_SCALE_MAX_K caps the sweep (CI perf-smoke sets 256 and diffs the
// fresh subset against the committed full baseline via --subset).
//
// Q/T/M are per-seed deterministic and gated by compare_bench.py; wall_ms
// and rss_mb are machine-dependent diagnostics the comparator holds to
// loose (or no) tolerances. The modeled mem_* breakdown fields are
// deterministic and gated tightly; mem_unattributed_frac is measured and
// gated as an absolute bound.
//
// Clock reads: the bench measures the substrate's real wall-clock cost;
// virtual time cannot observe it. Nothing in the measured runs reads this
// clock.
#include <chrono>

#include "bench_common.hpp"
#include "obs/mem.hpp"

using namespace asyncdr;
using namespace asyncdr::bench;
using namespace asyncdr::proto;

namespace {

struct ScalePoint {
  dr::RunReport report;
  double wall_ms = 0;
  double active_links = 0;
  double rss_mb = 0;           ///< per-point peak-RSS delta (obs::RssTracker)
  std::string rss_mechanism;   ///< how rss_mb was obtained (see obs/mem.hpp)
};

Scenario scale_scenario(std::size_t k, std::uint64_t seed) {
  Scenario s;
  // n is deliberately modest: wall clock is dominated by protocol-side
  // payload work (k^2 block transfers of n/k bits each), and this sweep
  // measures the substrate, not the protocol. The event budget and link
  // state it exercises depend on k, not n.
  s.cfg = dr::Config{.n = 1 << 13, .k = k, .beta = 0.125,
                     .message_bits = 1024, .seed = seed};
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  // FixedLatency collapses every broadcast's arrivals onto one instant —
  // the schedule where bucketed fan-out matters most.
  s.latency = fixed_latency(1.0);
  return s;
}

ScalePoint run_point(std::size_t k, std::uint64_t seed) {
  ScalePoint point;
  Scenario s = scale_scenario(k, seed);
  s.post_run = [&point](dr::World& world, const dr::RunReport&) {
    point.active_links =
        static_cast<double>(world.network().active_links());
  };
  // asyncdr-lint: allow(DR001) timing the run from outside, see header.
  const auto start = std::chrono::steady_clock::now();
  point.report = run_scenario(s);
  // asyncdr-lint: allow(DR001) timing the run from outside, see header.
  const auto stop = std::chrono::steady_clock::now();
  point.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return point;
}

RepeatStats as_stats(const ScalePoint& point) {
  RepeatStats stats;
  stats.runs = 1;
  if (!point.report.ok()) {
    stats.failures = 1;
    return stats;
  }
  stats.q.add(static_cast<double>(point.report.query_complexity));
  stats.t.add(point.report.time_complexity);
  stats.m.add(static_cast<double>(point.report.message_complexity));
  return stats;
}

std::size_t max_k_cap() {
  const char* cap = std::getenv("ASYNCDR_SCALE_MAX_K");
  if (cap == nullptr || *cap == '\0') return ~std::size_t{0};
  return static_cast<std::size_t>(std::strtoull(cap, nullptr, 10));
}

/// One sweep point as the campaign sees it.
struct GridEntry {
  std::string label;
  std::size_t k = 0;
  std::uint64_t seed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  banner("S — substrate scaling sweep (not a paper artifact)",
         "large-k runs within the default event budget; lazy link rows + "
         "bucketed broadcast");
  BenchJson bj("scale");
  const std::size_t cap = max_k_cap();

  // The sweep grid, in execution order.
  std::vector<GridEntry> grid;
  for (std::size_t k : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    if (k > cap) continue;
    grid.push_back({"k=" + std::to_string(k), k, 500 + k});
  }

  // The sweep runs over the campaign substrate for its telemetry (event
  // stream, summary, progress line), pinned to ONE worker: per-point RSS
  // accounting (RssTracker bracket: clear_refs reset when the kernel allows
  // it, VmHWM baseline delta otherwise — the mechanism is recorded in the
  // bench JSON) only means something when points execute serially in grid
  // order — a single worker drains the cursor 0..total-1.
  std::vector<ScalePoint> points(grid.size());
  if (!grid.empty()) {
    campaign::CampaignOptions copts;
    copts.name = "scale";
    copts.total = grid.size();
    copts.threads = 1;
    copts.seed_base = grid.front().seed;
    copts.seed_fn = [&grid](std::size_t i) { return grid[i].seed; };
    copts.telemetry = bench_telemetry("scale", argc, argv);
    campaign::Campaign camp(std::move(copts));
    camp.run([&](std::size_t i, std::uint64_t seed) {
      obs::RssTracker rss;
      rss.begin();
      points[i] = run_point(grid[i].k, seed);
      points[i].rss_mb =
          static_cast<double>(rss.peak_delta_bytes()) / (1024.0 * 1024.0);
      points[i].rss_mechanism = rss.mechanism_name();
      campaign::RunOutcome out;
      out.label = "S1/" + grid[i].label;
      out.status = points[i].report.ok() ? obs::RunStatus::kOk
                                         : obs::RunStatus::kFailed;
      if (!points[i].report.ok()) {
        out.detail = "run failed (predicate or budget)";
      }
      out.report = points[i].report;
      return out;
    });
    camp.finish();
  }

  const auto point_for = [&](const std::string& label) -> const ScalePoint* {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].label == label) return &points[i];
    }
    return nullptr;
  };

  section("S1: crash_multi k-sweep, n=8192, beta=0.125, silent prefix");
  {
    Table table({"k", "Q", "T", "M", "events", "active links", "k^2",
                 "wall ms", "peak RSS MB", "ok"});
    for (std::size_t k : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
      if (k > cap) {
        std::printf("(k=%zu skipped: ASYNCDR_SCALE_MAX_K=%zu)\n", k, cap);
        continue;
      }
      const std::string label = "k=" + std::to_string(k);
      const ScalePoint* point = point_for(label);
      if (point == nullptr) continue;
      const RepeatStats stats = as_stats(*point);
      table.add(k, mean_cell(stats.q), mean_cell(stats.t), mean_cell(stats.m),
                point->report.events, point->active_links,
                static_cast<double>(k) * static_cast<double>(k),
                point->wall_ms, point->rss_mb, point->report.ok());
      bj.record("S1", label, stats);
      bj.record_value("S1-substrate", label, "events",
                      static_cast<double>(point->report.events));
      bj.record_value("S1-substrate", label, "active_links",
                      point->active_links);
      // Machine-dependent; recorded for the EXPERIMENTS.md table, ignored
      // by the comparator.
      bj.record_value("S1-wall", label, "wall_ms", point->wall_ms);
      bj.record_value("S1-rss", label, "rss_mb", point->rss_mb);
      // Modeled memory breakdown: one peak-bytes field per pool (dots in
      // pool names become underscores so the fields stay flat keys), plus
      // the simultaneous total. These are deterministic and diffed at the
      // tight mem tolerance. The unattributed fraction compares the modeled
      // total against the measured RSS delta — machine-dependent, gated as
      // an absolute bound, and only meaningful when RSS was measurable AND
      // the delta is large enough that allocator arena granularity does not
      // dominate (the same 16 MiB floor the memprof tripwire applies).
      std::vector<std::pair<std::string, double>> mem;
      for (const obs::MemPoolStats& p : point->report.mem_pools) {
        std::string field = "mem_" + p.name;
        for (char& c : field) {
          if (c == '.') c = '_';
        }
        mem.emplace_back(field + "_peak_bytes",
                         static_cast<double>(p.peak));
      }
      mem.emplace_back("mem_accounted_bytes",
                       static_cast<double>(point->report.mem_total_peak));
      const double rss_bytes = point->rss_mb * 1024.0 * 1024.0;
      constexpr double kMinMeaningfulDelta = 16.0 * 1024.0 * 1024.0;
      if (point->rss_mechanism != "unavailable" &&
          rss_bytes >= kMinMeaningfulDelta) {
        const double attributed =
            static_cast<double>(point->report.mem_total_peak) / rss_bytes;
        mem.emplace_back("mem_unattributed_frac",
                         attributed < 1.0 ? 1.0 - attributed : 0.0);
      }
      bj.record_mixed("S1-mem", label, mem,
                      {{"rss_mechanism", point->rss_mechanism}});
    }
    table.print();
    std::printf("shape: events stays far below the per-recipient count\n"
                "(bucketed broadcast), and the run completes within the\n"
                "default %zu-event budget at every k.\n",
                sim::Engine::kDefaultEventBudget);
  }
  return 0;
}
