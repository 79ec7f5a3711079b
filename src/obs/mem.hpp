// Deterministic per-subsystem byte accounting.
//
// A `MemRegistry` owns named `MemPool`s (one per subsystem: engine heap,
// network links, payload bank, journal, trace, ...). Instrumented code
// reports bytes through explicit add/sub (sites that own raw buffers) or
// through `settle_component` (subsystems that compute their own footprint
// from container capacities).
//
// The contract that makes the numbers usable as a regression gate:
//
//  * Accounting is *modeled*, not measured: every charge passes through
//    `modeled_alloc_bytes`, a pure arithmetic model of the allocator's
//    per-chunk cost (header + alignment + minimum chunk). The totals are
//    therefore a function of container capacities and element sizes only
//    — identical across thread counts, sanitizers, and allocators, so a
//    breakdown can be byte-compared and committed as a golden file.
//  * Pools are registry-owned with stable addresses; instrumented
//    subsystems hold plain `MemPool*` and registries are strictly
//    per-world (no globals — the DR012 no-shared-mutable rule).
//  * Peaks are tracked per pool *and* for the cross-pool sum, so
//    `total_peak()` is the high-water mark of simultaneous usage, not
//    the sum of per-pool peaks.
//
// `RssTracker` (mem.cpp) is the companion *measured* number: the VmHWM
// delta the modeled breakdown is compared against by the `memprof`
// unattributed-memory tripwire.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace asyncdr::obs {

/// Modeled cost of one heap allocation of `requested` bytes: the glibc
/// malloc chunk shape (8-byte header, 16-byte alignment, 32-byte minimum
/// chunk). Pure arithmetic — never consults the real allocator — so the
/// accounting stays deterministic under ASan/TSan and across compilers.
[[nodiscard]] constexpr std::uint64_t modeled_alloc_bytes(
    std::uint64_t requested) noexcept {
  if (requested == 0) return 0;
  const std::uint64_t chunk = (requested + 8 + 15) & ~std::uint64_t{15};
  return std::max<std::uint64_t>(chunk, 32);
}

/// One pool's gauge pair, as surfaced in RunReport / memprof snapshots.
struct MemPoolStats {
  std::string name;
  std::uint64_t current = 0;
  std::uint64_t peak = 0;
};

class MemRegistry;

/// A named byte counter with a high-water mark. Created and owned by a
/// MemRegistry (stable address for the lifetime of the registry);
/// instrumentation holds a plain pointer and calls add/sub.
class MemPool {
 public:
  void add(std::uint64_t bytes) noexcept;
  void sub(std::uint64_t bytes) noexcept;

  [[nodiscard]] std::uint64_t current() const noexcept { return current_; }
  [[nodiscard]] std::uint64_t peak() const noexcept { return peak_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MemRegistry;
  MemPool(MemRegistry* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}

  MemRegistry* owner_;
  std::string name_;
  std::uint64_t current_ = 0;
  std::uint64_t peak_ = 0;
};

/// Owner of the per-world pool set. `pool(name)` hands out stable
/// references (create-on-first-use); `snapshot()` returns the sorted
/// per-pool stats used by RunReport, memprof, and the golden tests.
class MemRegistry {
 public:
  MemRegistry() = default;
  MemRegistry(const MemRegistry&) = delete;
  MemRegistry& operator=(const MemRegistry&) = delete;

  [[nodiscard]] MemPool& pool(const std::string& name) {
    auto it = pools_.find(name);
    if (it == pools_.end()) {
      it = pools_.emplace(name, std::unique_ptr<MemPool>(
                                    new MemPool(this, name))).first;
    }
    return *it->second;
  }

  /// Sorted by pool name (std::map order) — deterministic output order.
  [[nodiscard]] std::vector<MemPoolStats> snapshot() const {
    std::vector<MemPoolStats> out;
    out.reserve(pools_.size());
    for (const auto& [name, p] : pools_) {
      out.push_back(MemPoolStats{name, p->current(), p->peak()});
    }
    return out;
  }

  /// Sum of live bytes across pools right now.
  [[nodiscard]] std::uint64_t total_current() const noexcept {
    return total_current_;
  }
  /// High-water mark of the cross-pool *sum* (simultaneous usage), not
  /// the sum of per-pool peaks.
  [[nodiscard]] std::uint64_t total_peak() const noexcept {
    return total_peak_;
  }

 private:
  friend class MemPool;
  void on_add(std::uint64_t bytes) noexcept {
    total_current_ += bytes;
    total_peak_ = std::max(total_peak_, total_current_);
  }
  void on_sub(std::uint64_t bytes) noexcept { total_current_ -= bytes; }

  std::map<std::string, std::unique_ptr<MemPool>> pools_;
  std::uint64_t total_current_ = 0;
  std::uint64_t total_peak_ = 0;
};

inline void MemPool::add(std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  current_ += bytes;
  peak_ = std::max(peak_, current_);
  owner_->on_add(bytes);
}

inline void MemPool::sub(std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  // Clamp rather than underflow: a mis-paired credit must not wrap the
  // gauge to ~2^64 and poison every downstream report.
  const std::uint64_t applied = std::min(bytes, current_);
  current_ -= applied;
  owner_->on_sub(applied);
}

/// Reconcile a component whose modeled footprint is recomputed from its
/// capacity (`now`) against what was last charged (`recorded`): applies
/// the delta to the pool and updates the record. Tolerates a null pool
/// (instrumentation not wired) by tracking the record only, so a later
/// wiring starts from a consistent baseline.
inline void settle_component(MemPool* pool, std::uint64_t& recorded,
                             std::uint64_t now) noexcept {
  if (pool != nullptr) {
    if (now > recorded) {
      pool->add(now - recorded);
    } else if (recorded > now) {
      pool->sub(recorded - now);
    }
  }
  recorded = now;
}

/// Epoch-sampled memory timeline: one column per pool (fixed at world
/// construction so every sample has the same width), one row per sample.
/// `at` is sim time as a double — this header stays free of sim types so
/// sim itself can include it.
struct MemTimeline {
  struct Sample {
    std::uint64_t events = 0;  ///< engine events processed at sample time
    double at = 0.0;           ///< sim clock at sample time
    std::vector<std::uint64_t> bytes;  ///< current bytes, pools[] order
  };
  std::vector<std::string> pools;
  std::vector<Sample> samples;

  [[nodiscard]] bool empty() const noexcept { return samples.empty(); }
};

/// Measured peak-RSS delta over a bracketed region, with the mechanism
/// that produced the number made explicit (the satellite fix for the
/// silently-failing /proc/self/clear_refs reset in bench_scale):
///
///  * kClearRefs      — peak-RSS counter reset via /proc/self/clear_refs;
///                      VmHWM after the region is the region's own peak.
///  * kBaselineDelta  — reset unavailable (permissions, non-Linux kernel
///                      knob): report VmHWM_end - VmHWM_begin. Correct
///                      when the region grows past the prior high-water
///                      mark, an *underestimate* otherwise.
///  * kUnavailable    — no /proc/self/status (non-Linux): delta is 0 and
///                      consumers must skip RSS-derived assertions.
class RssTracker {
 public:
  enum class Mechanism { kClearRefs, kBaselineDelta, kUnavailable };

  /// Start a measurement region: trims the allocator's free lists so
  /// cached-but-free pages don't count, then tries the clear_refs reset.
  void begin();

  /// Peak RSS attributable to the region since begin(), in bytes.
  [[nodiscard]] std::uint64_t peak_delta_bytes() const;

  [[nodiscard]] Mechanism mechanism() const noexcept { return mechanism_; }
  [[nodiscard]] const char* mechanism_name() const noexcept;

 private:
  Mechanism mechanism_ = Mechanism::kUnavailable;
  std::uint64_t baseline_bytes_ = 0;
};

}  // namespace asyncdr::obs
