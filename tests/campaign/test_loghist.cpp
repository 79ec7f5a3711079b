// The log-bucketed histogram and the campaign collector: bucket boundaries,
// percentile clamping, and the merge half of the determinism contract —
// order-independence under arbitrary shard splits and permutations.
#include "obs/loghist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dr/world.hpp"
#include "obs/campaign.hpp"

namespace asyncdr::obs {
namespace {

TEST(LogHistogram, EmptyIsAllZero) {
  const LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.mean_est(), 0.0);
  EXPECT_TRUE(h.sparse_counts().empty());
}

TEST(LogHistogram, NonPositiveValuesLandInBucketZero) {
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(-3.5), 0u);
  EXPECT_EQ(LogHistogram::bucket_value(0), 0.0);

  LogHistogram h;
  h.observe(0.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.percentile(99), 0.0);
}

TEST(LogHistogram, BucketUpperBoundIsRepresentativeAndTight) {
  // Every positive value maps to a bucket whose representative (the
  // exclusive upper bound) is >= the value and within one sub-bucket width
  // (1/16 relative) above it.
  for (const double v : {0.002, 0.5, 1.0, 3.0, 100.0, 1e6, 1e9, 5.5e11}) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    const double rep = LogHistogram::bucket_value(idx);
    EXPECT_GE(rep, v) << v;
    EXPECT_LE(rep, v * (1.0 + 1.0 / LogHistogram::kSubBuckets) * 1.0001) << v;
  }
}

TEST(LogHistogram, BucketIndexIsMonotoneAcrossOctaveBoundaries) {
  // Values straddling powers of two must never map to a lower bucket.
  std::size_t prev = 0;
  for (double v = 0.25; v < 1e9; v *= 1.03) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "at v=" << v;
    prev = idx;
  }
}

TEST(LogHistogram, ExtremeValuesClampToEdgeBuckets) {
  LogHistogram h;
  h.observe(1e-300);  // far below 2^kMinOctave
  h.observe(1e300);   // far above 2^(kMaxOctave+1)
  EXPECT_EQ(h.count(), 2u);
  // min/max stay exact even though the buckets saturate.
  EXPECT_EQ(h.min(), 1e-300);
  EXPECT_EQ(h.max(), 1e300);
  EXPECT_EQ(LogHistogram::bucket_index(1e300),
            LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, EqualValuesSummarizeExactly) {
  // Clamping into [min, max] makes every percentile and the mean estimate
  // of equal values exact, not a bucket representative. 8,704 lies in the
  // bucket whose representative is 9,216, above the recorded max.
  EXPECT_EQ(LogHistogram::bucket_value(LogHistogram::bucket_index(8704.0)),
            9216.0);
  for (const auto& [value, times] :
       std::vector<std::pair<double, int>>{{137.0, 1}, {8704.0, 5}}) {
    LogHistogram h;
    for (int i = 0; i < times; ++i) h.observe(value);
    EXPECT_EQ(h.percentile(0), value);
    EXPECT_EQ(h.percentile(50), value);
    EXPECT_EQ(h.percentile(99), value);
    EXPECT_EQ(h.percentile(100), value);
    EXPECT_EQ(h.mean_est(), value);
  }
}

TEST(LogHistogram, PercentileWithinBucketResolution) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 500.0 * (1.0 - 1.0 / LogHistogram::kSubBuckets));
  EXPECT_LE(p50, 500.0 * (1.0 + 2.0 / LogHistogram::kSubBuckets));
  const double p99 = h.percentile(99);
  EXPECT_GE(p99, 990.0 * (1.0 - 1.0 / LogHistogram::kSubBuckets));
  EXPECT_LE(p99, 1000.0);  // clamped to exact max
  EXPECT_EQ(h.percentile(100), 1000.0);
  // Percentiles are monotone in q.
  double prev = 0;
  for (std::uint64_t q = 0; q <= 100; q += 5) {
    EXPECT_GE(h.percentile(q), prev);
    prev = h.percentile(q);
  }
}

TEST(LogHistogram, MergeWithEmptyIsIdentity) {
  LogHistogram h;
  h.observe(3.0);
  h.observe(70.0);
  const std::string before = h.snapshot_json().dump();

  LogHistogram empty;
  h.merge(empty);
  EXPECT_EQ(h.snapshot_json().dump(), before);

  // And folding into an empty histogram reproduces the source snapshot.
  LogHistogram target;
  target.merge(h);
  EXPECT_EQ(target.snapshot_json().dump(), before);
}

TEST(LogHistogram, MergeIsOrderIndependent) {
  Rng rng(2026);
  std::vector<double> values;
  values.reserve(500);
  for (int i = 0; i < 500; ++i) {
    values.push_back(static_cast<double>(rng.below(1u << 20)) / 16.0);
  }

  // Reference: one histogram, insertion order as generated.
  LogHistogram reference;
  for (const double v : values) reference.observe(v);
  const std::string expected = reference.snapshot_json().dump();

  // Shuffle, split into a random number of shards, merge shards in shuffled
  // order — the snapshot must not move.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> shuffled = values;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(static_cast<std::uint32_t>(i))]);
    }
    const std::size_t shard_count = 1 + rng.below(7);
    std::vector<LogHistogram> shards(shard_count);
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      shards[i % shard_count].observe(shuffled[i]);
    }
    std::vector<std::size_t> order(shard_count);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(static_cast<std::uint32_t>(i))]);
    }
    LogHistogram merged;
    for (const std::size_t s : order) merged.merge(shards[s]);
    EXPECT_EQ(merged.snapshot_json().dump(), expected) << "trial " << trial;
  }
}

TEST(LogHistogram, SparseCountsMatchDenseReference) {
  // The kept (index, count) pairs against a dense array of kBucketCount
  // counters fed the same values, observed directly and through merges;
  // percentiles and the mean walk the dense array in bucket order.
  Rng rng(77);
  std::vector<std::uint64_t> dense(LogHistogram::kBucketCount, 0);
  LogHistogram direct, merged;
  double lo = 0, hi = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = i % 50 == 0 ? 0.0
                                 : std::ldexp(1.0 + rng.uniform01(),
                                              static_cast<int>(rng.below(60)) - 15);
    ++dense[LogHistogram::bucket_index(v)];
    lo = i == 0 ? v : std::min(lo, v);
    hi = i == 0 ? v : std::max(hi, v);
    direct.observe(v);
    LogHistogram one;
    one.observe(v);
    merged.merge(one);
  }
  std::vector<std::pair<std::size_t, std::uint64_t>> want;
  double mean = 0;
  for (std::size_t b = 0; b < dense.size(); ++b) {
    if (dense[b] == 0) continue;
    want.emplace_back(b, dense[b]);
    mean += static_cast<double>(dense[b]) * LogHistogram::bucket_value(b);
  }
  EXPECT_EQ(direct.sparse_counts(), want);
  EXPECT_EQ(merged.sparse_counts(), want);
  EXPECT_EQ(direct.mean_est(), std::clamp(mean / 2000.0, lo, hi));
  for (const std::uint64_t q : {0u, 1u, 50u, 90u, 99u, 100u}) {
    const std::uint64_t rank = std::max<std::uint64_t>(1, (2000 * q + 99) / 100);
    std::uint64_t cum = 0;
    double value = hi;
    for (const auto& [index, count] : want) {
      cum += count;
      if (cum >= rank) {
        value = LogHistogram::bucket_value(index);
        break;
      }
    }
    EXPECT_EQ(direct.percentile(q), std::clamp(value, lo, hi)) << "q " << q;
  }
  EXPECT_EQ(merged.snapshot_json().dump(), direct.snapshot_json().dump());
}

TEST(LogHistogram, SnapshotJsonShape) {
  LogHistogram h;
  h.observe(100.0);
  h.observe(100.0);
  h.observe(200.0);
  const Json snap = h.snapshot_json();
  EXPECT_EQ(snap.find("count")->as_int(), 3);
  EXPECT_EQ(snap.find("min")->as_number(), 100.0);
  EXPECT_EQ(snap.find("max")->as_number(), 200.0);
  const Json* buckets = snap.find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->size(), 2u);  // sparse: two distinct buckets
  // Integral doubles must serialize without a decimal point or exponent.
  const std::string text = snap.dump();
  EXPECT_EQ(text.find("e+"), std::string::npos) << text;
  EXPECT_NE(text.find("\"min\":100"), std::string::npos) << text;
}

// --- CampaignCollector ------------------------------------------------------

dr::RunReport fake_report(std::uint64_t seed) {
  dr::RunReport r;
  r.all_terminated = true;
  r.all_correct = true;
  r.query_complexity = 64 + (seed % 7) * 100;
  r.time_complexity = static_cast<sim::Time>(1 + seed % 13);
  r.message_complexity = seed * 31 % 2048;
  r.events = 10 + seed % 90;
  r.recovery.restarts = seed % 3;
  r.recovery.queries_saved = (seed % 3) ? seed * 11 % 512 : 0;
  return r;
}

CampaignCollector build_reference(const std::vector<std::uint64_t>& seeds) {
  CampaignCollector c;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const RunStatus status = (seeds[i] % 5 == 0)   ? RunStatus::kFailed
                             : (seeds[i] % 7 == 0) ? RunStatus::kDegraded
                                                   : RunStatus::kOk;
    c.add_run(i, seeds[i], (seeds[i] % 2) ? "odd" : "even", status,
              status == RunStatus::kFailed ? "violation" : "",
              fake_report(seeds[i]));
  }
  return c;
}

TEST(CampaignCollector, ShardedMergeMatchesSerialByteForByte) {
  std::vector<std::uint64_t> seeds(64);
  std::iota(seeds.begin(), seeds.end(), 1u);
  const std::string expected = build_reference(seeds).summary_json().dump(1);

  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t shard_count = 1 + rng.below(8);
    std::vector<CampaignCollector> shards(shard_count);
    // Deal runs to shards round-robin after a shuffle (arbitrary schedule).
    std::vector<std::size_t> order(seeds.size());
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(static_cast<std::uint32_t>(i))]);
    }
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      const RunStatus status = (seeds[i] % 5 == 0)   ? RunStatus::kFailed
                               : (seeds[i] % 7 == 0) ? RunStatus::kDegraded
                                                     : RunStatus::kOk;
      shards[pos % shard_count].add_run(
          i, seeds[i], (seeds[i] % 2) ? "odd" : "even", status,
          status == RunStatus::kFailed ? "violation" : "",
          fake_report(seeds[i]));
    }
    CampaignCollector merged;
    for (const auto& s : shards) merged.merge(s);
    EXPECT_EQ(merged.summary_json().dump(1), expected) << "trial " << trial;
  }
}

TEST(CampaignCollector, CountsAndWorstTracking) {
  CampaignCollector c;
  dr::RunReport big = fake_report(3);
  big.query_complexity = 9999;
  dr::RunReport small = fake_report(4);
  small.query_complexity = 10;

  c.add_run(0, 100, "a", RunStatus::kOk, "", small);
  c.add_run(1, 101, "a", RunStatus::kFailed, "agreement violated", big);
  c.add_run(2, 102, "b", RunStatus::kDegraded, "", small);

  EXPECT_EQ(c.runs(), 3u);
  EXPECT_EQ(c.ok(), 1u);
  EXPECT_EQ(c.failed(), 1u);
  EXPECT_EQ(c.degraded(), 1u);

  const Json summary = c.summary_json();
  const Json* worst = summary.find("worst");
  ASSERT_NE(worst, nullptr);
  EXPECT_EQ(worst->find("max_q")->find("q")->as_int(), 9999);
  EXPECT_EQ(worst->find("max_q")->find("seed")->as_int(), 101);
  EXPECT_EQ(worst->find("failure_count")->as_int(), 1);
  const Json* failures = worst->find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->size(), 1u);
  EXPECT_EQ(failures->at(0).find("detail")->as_string(), "agreement violated");
}

TEST(CampaignCollector, FailureRosterIsCappedWithFullCount) {
  CampaignCollector c;
  const std::size_t kFailures = CampaignCollector::kMaxListedFailures + 10;
  for (std::size_t i = 0; i < kFailures; ++i) {
    c.add_run(i, i, "l", RunStatus::kFailed, "boom", fake_report(i));
  }
  const Json summary = c.summary_json();
  const Json* worst = summary.find("worst");
  ASSERT_NE(worst, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(worst->find("failure_count")->as_int()),
            kFailures);
  EXPECT_EQ(worst->find("failures")->size(),
            CampaignCollector::kMaxListedFailures);
}

TEST(CampaignCollector, TimingStaysOutOfTheDeterministicSummary) {
  CampaignCollector c;
  c.add_run(0, 1, "l", RunStatus::kOk, "", fake_report(1));
  c.add_timing(12.5, 80.0);
  EXPECT_EQ(c.summary_json().find("wall_ms"), nullptr);
  EXPECT_EQ(c.summary_json().find("timing"), nullptr);
  const Json timing = c.timing_json();
  ASSERT_NE(timing.find("wall_ms"), nullptr);
  EXPECT_EQ(timing.find("wall_ms")->find("count")->as_int(), 1);
  ASSERT_NE(timing.find("rss_mb"), nullptr);
}

}  // namespace
}  // namespace asyncdr::obs
