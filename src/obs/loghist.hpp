// Log-bucketed (HDR-style) histogram, the one histogram type of the
// observability layer: campaign summaries aggregate with it and the run
// collector (obs/collect.hpp) records its live distributions in it. It
// covers the whole positive double range with log2 major buckets split into
// kSubBuckets linear sub-buckets each, so one shape serves Q (bits), T
// (virtual time), M (messages), latency, queue depth, wall-clock ms and RSS
// MB alike with a bounded relative error of 1/kSubBuckets per recorded value.
//
// The determinism contract (see DESIGN.md, "Campaign telemetry"): merge() is
// commutative and associative — bucket counts are integer adds and min/max
// are exact comparisons — and every value snapshot_json() emits is derived
// from (bucket counts, exact min, exact max) in fixed bucket order. A
// campaign summary built by merging per-worker shards is therefore
// byte-identical regardless of thread count or completion order. No
// order-dependent quantity (such as a floating-point running sum) is kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace asyncdr::obs {

class LogHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave: relative bucket width
  /// 1/16 = 6.25%, the resolution bound on reported percentiles.
  static constexpr int kSubBuckets = 16;
  /// Octave range [2^kMinOctave, 2^(kMaxOctave+1)); values outside clamp to
  /// the first/last bucket. 2^-10 ~ 1ms-scale virtual times through
  /// 2^40 ~ 10^12 bits comfortably covers every campaign metric.
  static constexpr int kMinOctave = -10;
  static constexpr int kMaxOctave = 40;
  /// Bucket 0 holds non-positive values (Q of an all-crashed run is 0);
  /// buckets 1.. are the log-linear grid.
  static constexpr std::size_t kBucketCount =
      1 + static_cast<std::size_t>(kMaxOctave - kMinOctave + 1) * kSubBuckets;

  void observe(double v);

  /// Folds `other` in: integer bucket adds plus exact min/max — the
  /// order-independent half of the determinism contract.
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0; }  ///< exact
  [[nodiscard]] double max() const { return count_ ? max_ : 0; }  ///< exact

  /// Bucket index for a value (clamped; 0 for v <= 0).
  [[nodiscard]] static std::size_t bucket_index(double v);
  /// The bucket's representative value: its exclusive upper bound (0 for
  /// bucket 0). Deterministic closed form, so percentiles are reproducible.
  [[nodiscard]] static double bucket_value(std::size_t index);

  /// Nearest-rank percentile over bucket counts (q in [0, 100], exact rank
  /// arithmetic in integers), clamped into [min, max] so singleton and
  /// extreme queries return exact recorded values. 0 when empty.
  [[nodiscard]] double percentile(std::uint64_t q) const;

  /// Mean estimated from bucket representatives, accumulated in fixed
  /// bucket order (deterministic) and clamped into [min, max].
  [[nodiscard]] double mean_est() const;

  /// Sparse counts, ascending index: {index, count} pairs with count > 0.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::uint64_t>>&
  sparse_counts() const {
    return buckets_;
  }

  /// Deterministic snapshot: {"count", "min", "max", "p50", "p90", "p99",
  /// "mean_est", "buckets": {"<index>": count, ...} (sparse, ascending)}.
  [[nodiscard]] Json snapshot_json() const;

 private:
  /// The nonzero buckets as {index, count}, ascending index: a campaign's
  /// histograms hold a handful of the kBucketCount buckets each, so
  /// observe, merge and the percentile walks cost O(nonzero buckets).
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets_;
  std::uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace asyncdr::obs
