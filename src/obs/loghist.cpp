#include "obs/loghist.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace asyncdr::obs {

std::size_t LogHistogram::bucket_index(double v) {
  if (!(v > 0)) return 0;  // non-positive (and NaN) land in the zero bucket
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
  const int octave = exp - 1;                   // v in [2^octave, 2^(octave+1))
  if (octave < kMinOctave) return 1;
  if (octave > kMaxOctave) return kBucketCount - 1;
  // mantissa in [0.5, 1) -> fraction through the octave in [0, 1).
  const double frac = mantissa * 2.0 - 1.0;
  int sub = static_cast<int>(frac * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  if (sub < 0) sub = 0;
  return 1 +
         static_cast<std::size_t>(octave - kMinOctave) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double LogHistogram::bucket_value(std::size_t index) {
  if (index == 0) return 0;
  ASYNCDR_EXPECTS_MSG(index < kBucketCount, "bucket index out of range");
  const std::size_t i = index - 1;
  const int octave = kMinOctave + static_cast<int>(i / kSubBuckets);
  const int sub = static_cast<int>(i % kSubBuckets);
  // Exclusive upper bound of the sub-bucket [lo + sub*w, lo + (sub+1)*w).
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void LogHistogram::observe(double v) {
  const std::size_t index = bucket_index(v);
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const auto& bucket, std::size_t i) { return bucket.first < i; });
  if (it != buckets_.end() && it->first == index) {
    ++it->second;
  } else {
    buckets_.emplace(it, index, 1);
  }
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  // Merge of two ascending lists, adding the counts of shared indices.
  std::vector<std::pair<std::size_t, std::uint64_t>> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  auto a = buckets_.begin();
  auto b = other.buckets_.begin();
  while (a != buckets_.end() || b != other.buckets_.end()) {
    if (b == other.buckets_.end() ||
        (a != buckets_.end() && a->first < b->first)) {
      merged.push_back(*a++);
    } else if (a == buckets_.end() || b->first < a->first) {
      merged.push_back(*b++);
    } else {
      merged.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  buckets_ = std::move(merged);
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
}

double LogHistogram::percentile(std::uint64_t q) const {
  if (count_ == 0) return 0;
  if (q > 100) q = 100;
  // Nearest-rank: the smallest rank r with r*100 >= q*count. Integer
  // arithmetic keeps the rank exact for any count.
  std::uint64_t rank = (count_ * q + 99) / 100;
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  double value = max_;
  for (const auto& [index, count] : buckets_) {
    cum += count;
    if (cum >= rank) {
      value = bucket_value(index);
      break;
    }
  }
  // Clamp into the exact observed range: bucket upper bounds overshoot the
  // largest sample, and the min clamp makes singletons exact.
  if (value > max_) value = max_;
  if (value < min_) value = min_;
  return value;
}

double LogHistogram::mean_est() const {
  if (count_ == 0) return 0;
  double total = 0;
  for (const auto& [index, count] : buckets_) {
    total += static_cast<double>(count) * bucket_value(index);
  }
  // Clamp into the exact observed range, as percentile() does: bucket
  // upper bounds overshoot, so a histogram of equal values would otherwise
  // report a mean above its max.
  return std::clamp(total / static_cast<double>(count_), min_, max_);
}

namespace {
/// Integral doubles (the common case for Q/M counts) emit as JSON integers
/// instead of the %g scientific form ("100", not "1e+02").
Json number(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) <= 9.0e15) {
    return Json(static_cast<std::int64_t>(v));
  }
  return Json(v);
}
}  // namespace

Json LogHistogram::snapshot_json() const {
  Json j = Json::object();
  j["count"] = count_;
  j["min"] = number(min());
  j["max"] = number(max());
  j["p50"] = number(percentile(50));
  j["p90"] = number(percentile(90));
  j["p99"] = number(percentile(99));
  j["mean_est"] = number(mean_est());
  // Sparse bucket map, keyed by decimal bucket index in ascending order
  // (insertion order is preserved, so the emitted object is canonical).
  Json buckets = Json::object();
  for (const auto& [index, count] : sparse_counts()) {
    buckets[std::to_string(index)] = count;
  }
  j["buckets"] = std::move(buckets);
  return j;
}

}  // namespace asyncdr::obs
