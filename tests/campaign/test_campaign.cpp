// The campaign substrate end to end: scheduling semantics (every run
// executes once, results land at their grid index, seeds are a pure
// function of the index), the JSONL event stream, the summary JSON — and
// the headline determinism contract, pinned two ways: thread-count
// invariance (1 worker vs 8, byte-identical summary) and a committed
// golden summary (regenerate with ASYNCDR_WRITE_GOLDEN=1).
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/campaign.hpp"
#include "obs/json.hpp"

#ifndef ASYNCDR_SOURCE_DIR
#define ASYNCDR_SOURCE_DIR "."
#endif

namespace asyncdr::campaign {
namespace {

using obs::Json;
using obs::RunStatus;

/// A deterministic synthetic run: every field a pure function of
/// (index, seed), so campaign output depends only on the grid.
RunOutcome synthetic_outcome(std::size_t index, std::uint64_t seed) {
  RunOutcome out;
  out.label = (index % 3 == 0) ? "naive" : (index % 3 == 1) ? "committee"
                                                            : "crash_one";
  out.status = (seed % 11 == 0)  ? RunStatus::kFailed
               : (seed % 7 == 0) ? RunStatus::kDegraded
                                 : RunStatus::kOk;
  if (out.status == RunStatus::kFailed) out.detail = "synthetic violation";
  out.report.all_terminated = true;
  out.report.all_correct = out.status != RunStatus::kFailed;
  out.report.query_complexity = 32 + (seed % 9) * 64;
  out.report.time_complexity = static_cast<sim::Time>(1 + seed % 17);
  out.report.message_complexity = (seed * 37) % 4096;
  out.report.events = 20 + seed % 200;
  out.report.recovery.restarts = seed % 4;
  out.report.recovery.queries_saved = (seed % 4) ? (seed * 13) % 1024 : 0;
  return out;
}

CampaignOptions base_options(std::size_t total, std::size_t threads) {
  CampaignOptions o;
  o.name = "test";
  o.total = total;
  o.threads = threads;
  o.seed_base = 100;
  return o;
}

TEST(Campaign, RunsEveryIndexOnceAndLandsResultsInGridOrder) {
  Campaign camp(base_options(17, 4));
  const auto records = camp.run(
      [](std::size_t i, std::uint64_t s) { return synthetic_outcome(i, s); });

  ASSERT_EQ(records.size(), 17u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, i);
    EXPECT_EQ(records[i].seed, 100 + i);  // default seed_fn = base + index
    seeds.insert(records[i].seed);
    EXPECT_EQ(records[i].outcome.label, synthetic_outcome(i, 100 + i).label);
  }
  EXPECT_EQ(seeds.size(), 17u);  // no run executed under a duplicate seed
}

TEST(Campaign, CustomSeedFnDrivesEveryRun) {
  CampaignOptions o = base_options(8, 2);
  o.seed_fn = [](std::size_t i) { return 1000 + 10 * i; };
  Campaign camp(std::move(o));
  const auto records = camp.run(
      [](std::size_t i, std::uint64_t s) { return synthetic_outcome(i, s); });
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seed, 1000 + 10 * i);
  }
}

TEST(Campaign, SummaryCountsMatchOutcomes) {
  Campaign camp(base_options(40, 3));
  camp.run([](std::size_t i, std::uint64_t s) {
    return synthetic_outcome(i, s);
  });

  std::size_t want_ok = 0, want_failed = 0, want_degraded = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    switch (synthetic_outcome(i, 100 + i).status) {
      case RunStatus::kOk: ++want_ok; break;
      case RunStatus::kFailed: ++want_failed; break;
      case RunStatus::kDegraded: ++want_degraded; break;
    }
  }
  EXPECT_EQ(camp.collector().ok(), want_ok);
  EXPECT_EQ(camp.collector().failed(), want_failed);
  EXPECT_EQ(camp.collector().degraded(), want_degraded);

  const Json summary = camp.summary();
  EXPECT_EQ(summary.find("schema")->as_string(), "asyncdr-campaign-v1");
  EXPECT_EQ(summary.find("campaign")->as_string(), "test");
  EXPECT_EQ(summary.find("total")->as_int(), 40);
  const Json* runs = summary.find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(runs->find("ok")->as_int()), want_ok);
  EXPECT_EQ(static_cast<std::size_t>(runs->find("failed")->as_int()),
            want_failed);
  // The deterministic summary must not leak machine-dependent sections or
  // the thread count (both would break cross-host byte-comparison).
  EXPECT_EQ(summary.find("timing"), nullptr);
  EXPECT_EQ(summary.find("threads"), nullptr);
}

TEST(Campaign, SummaryIsByteIdenticalAcrossThreadCounts) {
  // The acceptance gate: same campaign seed, 1 worker vs 8, identical
  // summary bytes. The job sleeps pseudo-randomly via workload skew
  // (different q/t/m per run) so schedules genuinely differ.
  std::string summaries[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int v = 0; v < 2; ++v) {
    Campaign camp(base_options(64, thread_counts[v]));
    camp.run([](std::size_t i, std::uint64_t s) {
      return synthetic_outcome(i, s);
    });
    summaries[v] = camp.summary_string();
  }
  EXPECT_EQ(summaries[0], summaries[1]);
  EXPECT_FALSE(summaries[0].empty());
}

TEST(Campaign, GoldenSummaryIsStable) {
  // Byte-compares the summary of a fixed synthetic campaign against the
  // committed golden file. A diff here means the serialization or the
  // aggregation changed — bump deliberately by regenerating:
  //   ASYNCDR_WRITE_GOLDEN=1 ./test_campaign
  Campaign camp(base_options(48, 5));
  camp.run([](std::size_t i, std::uint64_t s) {
    return synthetic_outcome(i, s);
  });
  const std::string got = camp.summary_string();

  const std::string path =
      std::string(ASYNCDR_SOURCE_DIR) + "/tests/campaign/golden_summary.json";
  if (std::getenv("ASYNCDR_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with ASYNCDR_WRITE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

TEST(Campaign, EventStreamIsContiguousAndComplete) {
  const std::string dir = ::testing::TempDir();
  const std::string events_path = dir + "/campaign_events.jsonl";
  const std::string summary_path = dir + "/campaign_summary.json";

  CampaignOptions o = base_options(12, 4);
  o.telemetry.events_path = events_path;
  o.telemetry.summary_path = summary_path;
  Campaign camp(std::move(o));
  camp.run([](std::size_t i, std::uint64_t s) {
    return synthetic_outcome(i, s);
  });
  camp.finish();

  // Every line opens with the emitter's own fields, in the order it writes
  // them: {"ev":"<kind>","seq":<n>,"ts_ms":<ms>, then the event's fields.
  // tools/check_campaign.py validates whole streams in ctest
  // (cli_chaos_campaign_valid).
  struct Head {
    std::string ev;
    std::uint64_t seq;
    double ts_ms;
  };
  std::vector<Head> events;
  std::ifstream in(events_path);
  ASSERT_TRUE(in.good());
  std::string line;
  while (std::getline(in, line)) {
    const std::string open = "{\"ev\":\"";
    const std::size_t seq_at = line.find("\",\"seq\":");
    const std::size_t ts_at = line.find(",\"ts_ms\":");
    ASSERT_EQ(line.rfind(open, 0), 0u) << line;
    ASSERT_NE(seq_at, std::string::npos) << line;
    ASSERT_NE(ts_at, std::string::npos) << line;
    ASSERT_EQ(line.back(), '}') << line;
    Head head;
    head.ev = line.substr(open.size(), seq_at - open.size());
    head.seq = std::stoull(line.substr(seq_at + 8, ts_at - seq_at - 8));
    head.ts_ms = std::stod(line.substr(ts_at + 9));
    events.push_back(head);
  }

  // started + finished + (run_started + terminal) per run.
  ASSERT_EQ(events.size(), 2u + 2u * 12u);
  EXPECT_EQ(events.front().ev, "campaign_started");
  EXPECT_EQ(events.back().ev, "campaign_finished");
  double prev_ts = -1;
  std::size_t terminal = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_GE(events[i].ts_ms, prev_ts);
    prev_ts = events[i].ts_ms;
    if (events[i].ev == "run_finished" || events[i].ev == "run_failed") {
      ++terminal;
    }
  }
  EXPECT_EQ(terminal, 12u);

  // The summary file is summary_string(), byte for byte.
  std::ifstream sin(summary_path, std::ios::binary);
  ASSERT_TRUE(sin.good());
  std::ostringstream written;
  written << sin.rdbuf();
  EXPECT_EQ(written.str(), camp.summary_string());
  const Json summary = camp.summary();
  EXPECT_EQ(summary.find("schema")->as_string(), "asyncdr-campaign-v1");
  EXPECT_EQ(summary.find("runs")->find("total")->as_int(), 12);
}

TEST(Campaign, FinishIsIdempotentAndDestructorSafe) {
  const std::string summary_path =
      ::testing::TempDir() + "/finish_idem_summary.json";
  CampaignOptions o = base_options(3, 1);
  o.telemetry.summary_path = summary_path;
  Campaign camp(std::move(o));
  camp.run([](std::size_t i, std::uint64_t s) {
    return synthetic_outcome(i, s);
  });
  camp.finish();
  camp.finish();  // second call must be a no-op (destructor calls it again)

  std::ifstream in(summary_path);
  ASSERT_TRUE(in.good());
}

TEST(Campaign, TimingSectionIsOptIn) {
  CampaignOptions o = base_options(4, 2);
  o.telemetry.include_timing = true;
  Campaign camp(std::move(o));
  camp.run([](std::size_t i, std::uint64_t s) {
    return synthetic_outcome(i, s);
  });
  const Json summary = camp.summary();
  const Json* timing = summary.find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->find("wall_ms"), nullptr);
  EXPECT_NE(timing->find("wall_ms_total"), nullptr);
}

}  // namespace
}  // namespace asyncdr::campaign
