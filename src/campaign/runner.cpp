// asyncdr-lint: disable-file(DR001) the campaign runner measures per-run
// wall time and throughput — operator telemetry quarantined in the event
// stream and the opt-in timing section. No world, protocol, or
// deterministic summary field reads these clocks.
// asyncdr-lint: disable-file(DR011) the summary JSON is an observability
// artifact written after every world has finished — the campaign-level
// analogue of the bench/CLI report writers the rule exempts.
#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/progress.hpp"
#include "common/check.hpp"
#include "common/threads.hpp"

namespace asyncdr::campaign {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

Campaign::Campaign(CampaignOptions options) : options_(std::move(options)) {
  ASYNCDR_EXPECTS_MSG(options_.total > 0, "CampaignOptions::total must be > 0");
  if (!options_.seed_fn) {
    const std::uint64_t base = options_.seed_base;
    options_.seed_fn = [base](std::size_t i) {
      return base + static_cast<std::uint64_t>(i);
    };
  }
  if (!options_.telemetry.events_path.empty()) {
    events_ = EventStream::open(options_.telemetry.events_path);
  }
}

Campaign::~Campaign() { finish(); }

double Campaign::peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::vector<RunRecord> Campaign::run(const Job& job) {
  ASYNCDR_EXPECTS_MSG(!ran_, "Campaign::run may only be called once");
  ran_ = true;

  const std::size_t total = options_.total;
  if (events_) {
    obs::Json fields = obs::Json::object();
    fields["campaign"] = options_.name;
    fields["total"] = static_cast<std::uint64_t>(total);
    fields["seed_base"] = options_.seed_base;
    events_->emit("campaign_started", fields);
  }
  Progress progress(options_.name, total, options_.telemetry.progress);

  const std::size_t threads =
      std::min(resolve_threads(options_.threads), total);
  std::vector<RunRecord> records(total);
  // One collector shard per worker: workers never contend, and the final
  // merge is order-independent, so the aggregate cannot depend on which
  // worker stole which run.
  std::vector<obs::CampaignCollector> shards(threads);

  std::atomic<std::size_t> cursor{0};
  const auto worker = [&](std::size_t shard) {
    obs::CampaignCollector& collector = shards[shard];
    for (std::size_t i = cursor.fetch_add(1); i < total;
         i = cursor.fetch_add(1)) {
      const std::uint64_t seed = options_.seed_fn(i);
      if (events_) {
        obs::Json fields = obs::Json::object();
        fields["run"] = static_cast<std::uint64_t>(i);
        fields["seed"] = seed;
        events_->emit("run_started", fields);
      }
      const Clock::time_point start = Clock::now();
      RunRecord rec;
      rec.index = i;
      rec.seed = seed;
      rec.outcome = job(i, seed);
      rec.wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();

      const bool failed = rec.outcome.status == obs::RunStatus::kFailed;
      collector.add_run(i, seed, rec.outcome.label, rec.outcome.status,
                        rec.outcome.detail, rec.outcome.report);
      // The timing section is emitted only on request, and reading VmHWM
      // opens /proc/self/status: skip both otherwise.
      if (options_.telemetry.include_timing) {
        collector.add_timing(rec.wall_ms, peak_rss_mb());
      }
      if (events_) {
        obs::Json fields = obs::Json::object();
        fields["run"] = static_cast<std::uint64_t>(i);
        fields["seed"] = seed;
        fields["label"] = rec.outcome.label;
        fields["status"] = obs::run_status_name(rec.outcome.status);
        fields["q"] =
            static_cast<std::uint64_t>(rec.outcome.report.query_complexity);
        fields["t"] = rec.outcome.report.time_complexity;
        fields["m"] =
            static_cast<std::uint64_t>(rec.outcome.report.message_complexity);
        fields["wall_ms"] = rec.wall_ms;
        if (failed) fields["detail"] = rec.outcome.detail;
        events_->emit(failed ? "run_failed" : "run_finished", fields);
      }
      progress.on_run_done(seed, failed,
                           rec.outcome.report.query_complexity);
      records[i] = std::move(rec);
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }

  for (const obs::CampaignCollector& shard : shards) collector_.merge(shard);
  for (const RunRecord& rec : records) wall_ms_total_ += rec.wall_ms;
  progress.finish();
  return records;
}

obs::Json Campaign::summary() const {
  obs::Json j = obs::Json::object();
  j["schema"] = "asyncdr-campaign-v1";
  j["campaign"] = options_.name;
  j["total"] = static_cast<std::uint64_t>(options_.total);
  j["seed_base"] = options_.seed_base;
  const obs::Json agg = collector_.summary_json();
  for (const auto& [key, value] : agg.members()) {
    j[key] = value;
  }
  if (options_.telemetry.include_timing) {
    obs::Json timing = collector_.timing_json();
    timing["wall_ms_total"] = wall_ms_total_;
    timing["rss_mb_final"] = peak_rss_mb();
    j["timing"] = timing;
  }
  return j;
}

std::string Campaign::summary_string() const {
  std::string out = summary().dump(1);
  out.push_back('\n');
  return out;
}

void Campaign::finish() {
  if (!ran_ || finished_) return;
  finished_ = true;
  if (events_) {
    obs::Json fields = obs::Json::object();
    fields["campaign"] = options_.name;
    fields["total"] = static_cast<std::uint64_t>(options_.total);
    fields["ok"] = static_cast<std::uint64_t>(collector_.ok());
    fields["failed"] = static_cast<std::uint64_t>(collector_.failed());
    fields["degraded"] = static_cast<std::uint64_t>(collector_.degraded());
    events_->emit("campaign_finished", fields);
  }
  if (!options_.telemetry.summary_path.empty()) {
    std::ofstream out(options_.telemetry.summary_path,
                      std::ios::binary | std::ios::trunc);
    if (out) {
      out << summary_string();
    } else {
      // asyncdr-lint: allow(DR004) operator-facing warning; the campaign
      // result is still available in-process.
      std::fprintf(stderr, "warning: cannot write campaign summary %s\n",
                   options_.telemetry.summary_path.c_str());
    }
  }
}

}  // namespace asyncdr::campaign
