#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace asyncdr::sim {

void Engine::schedule_in(Time delay, Action action) {
  ASYNCDR_EXPECTS(delay >= 0);
  schedule_at(now_ + delay, std::move(action));
}

void Engine::schedule_at(Time t, Action action) {
  push(t, next_seq_++, std::move(action));
}

std::uint64_t Engine::reserve_seqs(std::uint64_t count) {
  ASYNCDR_EXPECTS(count >= 1);
  const std::uint64_t first = next_seq_;
  next_seq_ += count;
  reserved_ += count;
  return first;
}

void Engine::schedule_reserved(Time t, std::uint64_t seq, Action action) {
  ASYNCDR_EXPECTS_MSG(reserved_ > 0 && seq < next_seq_,
                      "schedule_reserved without an outstanding reservation");
  push(t, seq, std::move(action));
  --reserved_;
}

void Engine::push(Time t, std::uint64_t seq, Action action) {
  ASYNCDR_EXPECTS(t >= now_);
  ASYNCDR_EXPECTS(static_cast<bool>(action));
  heap_action_bytes_ +=
      obs::modeled_alloc_bytes(static_cast<std::uint64_t>(action.heap_bytes()));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(action);
  } else {
    ASYNCDR_EXPECTS_MSG(
        pool_.size() < std::numeric_limits<std::uint32_t>::max(),
        "event pool exhausted 32-bit slot indices");
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(action));
  }
  heap_.push_back(HeapNode{t, seq, slot});
  sift_up(heap_.size() - 1);
  sync_mem();
}

void Engine::sift_up(std::size_t i) {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapNode node = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const HeapNode top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);

  // Move the action out and retire its slot *before* invoking: the action
  // (or its destructor, on return) may re-enter schedule_at, and must find
  // the heap, the pool, and the free list in a consistent state.
  Action action = std::move(pool_[top.slot]);
  free_slots_.push_back(top.slot);
  heap_action_bytes_ -=
      obs::modeled_alloc_bytes(static_cast<std::uint64_t>(action.heap_bytes()));
  sync_mem();
  now_ = top.t;
  action();
  return true;
}

void Engine::set_mem_pool(obs::MemPool* pool) {
  mem_pool_ = pool;
  sync_mem();
}

void Engine::sync_mem() {
  if (mem_pool_ == nullptr) return;
  const std::uint64_t modeled =
      obs::modeled_alloc_bytes(heap_.capacity() * sizeof(HeapNode)) +
      obs::modeled_alloc_bytes(pool_.capacity() * sizeof(Action)) +
      obs::modeled_alloc_bytes(free_slots_.capacity() *
                               sizeof(std::uint32_t)) +
      heap_action_bytes_;
  obs::settle_component(mem_pool_, mem_recorded_, modeled);
}

Engine::RunResult Engine::run(std::size_t max_events) {
  RunResult result;
  while (result.events_processed < max_events) {
    if (!step()) return result;
    ++result.events_processed;
  }
  result.budget_exhausted = !idle();
  return result;
}

}  // namespace asyncdr::sim
