// Allocation budget for RunMetricsCollector::attach() at large k: the
// collector keeps per-peer arrays of k words and no per-link state, so
// attach must not allocate anything on the order of k^2 (a bare pointer per
// link is k*k*8 = 2 MB at k = 512). This binary replaces the global
// operator new to watch for any single oversized allocation while attach
// runs; it must stay in its own test executable so the override cannot
// leak into other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/bitvec.hpp"
#include "dr/world.hpp"
#include "obs/collect.hpp"

namespace {

/// Largest single allocation observed while tracking is on. Plain malloc
/// underneath keeps the override sanitizer-friendly (ASan intercepts malloc
/// and free, and new/delete stay matched).
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

void note(std::size_t size) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  std::size_t prev = g_largest.load(std::memory_order_relaxed);
  while (prev < size &&
         !g_largest.compare_exchange_weak(prev, size,
                                          std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t size) {
  note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asyncdr::obs {
namespace {

TEST(CollectorAlloc, AttachAtLargeKStaysUnderTheBudget) {
  constexpr std::size_t k = 512;
  // Any k^2-shaped structure blows this budget: even a bare pointer per
  // link is k*k*8 = 2 MB. The per-peer arrays (k words each) stay well
  // under it.
  constexpr std::size_t kBudget = 256 * 1024;

  dr::Config cfg{.n = 1024, .k = k, .beta = 0.0, .message_bits = 256,
                 .seed = 1};
  dr::World world(cfg, BitVec(cfg.n));
  RunMetricsCollector collector;

  g_largest.store(0);
  g_tracking.store(true);
  collector.attach(world);
  g_tracking.store(false);

  EXPECT_LT(g_largest.load(), kBudget)
      << "attach() made a single allocation of " << g_largest.load()
      << " bytes at k=" << k << " — an O(k^2) structure is back";
}

}  // namespace
}  // namespace asyncdr::obs
