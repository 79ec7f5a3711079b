// Deterministic discrete-event engine. Events fire in (time, insertion
// sequence) order, so two runs with identical inputs produce identical
// executions — the property every test and lower-bound construction relies
// on.
//
// Layout (sized for runs with tens of millions of events): the priority
// queue is an owned 4-ary heap of 24-byte (time, seq, slot) nodes — shallow
// and cache-friendly to sift, and nothing but PODs move during heap
// maintenance. Actions live in a pooled slot array off to the side
// (free-list recycled), stored as small-buffer-optimized InlineActions, so
// scheduling an event performs no per-event heap allocation for any closure
// up to InlineAction::kInlineBytes. step() moves the action out of its slot
// and releases the slot *before* invoking, so actions may freely re-enter
// schedule_at / schedule_in — even from their destructors.
//
// Reserved sequence numbers let a producer hold a whole ordered batch while
// only its next member sits in the heap: reserve_seqs(m) hands out m
// consecutive seqs up front, and schedule_reserved pushes one of them later
// under exactly the (time, seq) key an eager schedule_at would have given
// it. pending() counts reserved-but-unscheduled numbers as pending events.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/mem.hpp"
#include "sim/action.hpp"
#include "sim/types.hpp"

namespace asyncdr::sim {

/// Event-driven virtual-time executor.
class Engine {
 public:
  using Action = InlineAction;

  /// Result of a run() call.
  struct RunResult {
    std::size_t events_processed = 0;
    /// True if run() stopped because the event budget was hit while events
    /// remained — the runaway-execution guard, treated as failure upstream.
    bool budget_exhausted = false;
  };

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` to run `delay` time units from now. delay >= 0.
  void schedule_in(Time delay, Action action);

  /// Schedules `action` at absolute time `t`. t >= now().
  void schedule_at(Time t, Action action);

  /// Reserves `count` consecutive sequence numbers (count >= 1) and returns
  /// the first. Until pushed with schedule_reserved, each counts as one
  /// pending event.
  std::uint64_t reserve_seqs(std::uint64_t count);

  /// Schedules `action` at absolute time `t` (t >= now()) under `seq`, a
  /// still-outstanding number from reserve_seqs. It fires exactly where an
  /// event scheduled at `t` when `seq` was reserved would have fired.
  void schedule_reserved(Time t, std::uint64_t seq, Action action);

  /// Runs one event; returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains or `max_events` have been processed.
  RunResult run(std::size_t max_events = kDefaultEventBudget);

  [[nodiscard]] bool idle() const { return pending() == 0; }
  /// Events in the heap plus reserved seqs not yet scheduled.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + static_cast<std::size_t>(reserved_);
  }

  /// Wires the `sim.engine.heap` accounting pool. Bytes tracked: heap
  /// node / action pool / free-list capacities plus the heap cells of
  /// actions that spilled past InlineAction's inline buffer.
  void set_mem_pool(obs::MemPool* pool);

  static constexpr std::size_t kDefaultEventBudget = 50'000'000;

 private:
  /// Heap node: ordering key plus the index of the action's pool slot.
  /// Slots are 32-bit — the pool never exceeds the peak number of
  /// *concurrently pending* events, and four billion pending events would
  /// exhaust memory long before the index.
  struct HeapNode {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Strict (time, seq) min order.
  [[nodiscard]] static bool earlier(const HeapNode& a, const HeapNode& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  /// Inserts `action` under the (t, seq) key.
  void push(Time t, std::uint64_t seq, Action action);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Reconciles the modeled container footprint (capacities change only
  /// inside schedule_at/step, so those call this) with the mem pool.
  void sync_mem();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t reserved_ = 0;  ///< reserved seqs not yet scheduled
  std::vector<HeapNode> heap_;        ///< 4-ary min-heap over (t, seq)
  std::vector<Action> pool_;          ///< action per slot, indexed by HeapNode::slot
  std::vector<std::uint32_t> free_slots_;  ///< recycled pool slots
  obs::MemPool* mem_pool_ = nullptr;  ///< sim.engine.heap (nullable)
  std::uint64_t heap_action_bytes_ = 0;  ///< live spilled-closure bytes
  std::uint64_t mem_recorded_ = 0;    ///< last settled modeled footprint
};

}  // namespace asyncdr::sim
