#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace asyncdr::sim {
namespace {

TEST(Engine, StartsAtTimeZeroIdle) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.idle());
  EXPECT_FALSE(e.step());
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, TieBrokenByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1;
  e.schedule_at(2.0, [&] {
    e.schedule_in(0.5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Engine, NestedSchedulingAtSameTime) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(0);
    e.schedule_in(0.0, [&] { order.push_back(2); });
  });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PastSchedulingThrows) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(4.0, [] {}), contract_violation);
  EXPECT_THROW(e.schedule_in(-1.0, [] {}), contract_violation);
  EXPECT_THROW(e.schedule_at(6.0, nullptr), contract_violation);
}

TEST(Engine, BudgetStopsRunawayExecution) {
  Engine e;
  std::function<void()> loop = [&] { e.schedule_in(1.0, loop); };
  e.schedule_at(0.0, loop);
  const auto result = e.run(100);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.events_processed, 100u);
  EXPECT_FALSE(e.idle());
}

TEST(Engine, RunReportsEventCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  const auto result = e.run();
  EXPECT_EQ(result.events_processed, 7u);
  EXPECT_FALSE(result.budget_exhausted);
}

TEST(Engine, PendingCount) {
  Engine e;
  e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.step();
  EXPECT_EQ(e.pending(), 1u);
}

// Regression for the pooled-event engine: an action whose DESTRUCTOR
// re-enters schedule_at while step() is still unwinding must find the heap,
// pool, and free list consistent. (The old priority_queue implementation
// moved events out of top() via const_cast, where this pattern was
// formally undefined.)
TEST(Engine, ActionDestructorMayRescheduleDuringStep) {
  Engine e;
  bool late_fired = false;

  struct DtorScheduler {
    Engine* engine;
    bool* flag;
    bool invoked = false;
    bool armed = true;
    DtorScheduler(Engine* eng, bool* f) : engine(eng), flag(f) {}
    DtorScheduler(DtorScheduler&& o) noexcept
        : engine(o.engine), flag(o.flag), invoked(o.invoked), armed(o.armed) {
      o.armed = false;  // only the final resting instance fires on death
    }
    DtorScheduler& operator=(DtorScheduler&&) = delete;
    DtorScheduler(const DtorScheduler&) = delete;
    ~DtorScheduler() {
      if (armed && invoked) {
        engine->schedule_in(0.5, [f = flag] { *f = true; });
      }
    }
    void operator()() { invoked = true; }
  };

  e.schedule_at(1.0, DtorScheduler{&e, &late_fired});
  const auto result = e.run();
  EXPECT_TRUE(late_fired);
  EXPECT_DOUBLE_EQ(e.now(), 1.5);
  EXPECT_EQ(result.events_processed, 2u);
}

TEST(Engine, LargeCapturesPreserveOrderViaHeapFallback) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    // Padding pushes the closure past the inline buffer; ordering must not
    // depend on which storage path a callable took.
    std::array<char, 160> pad{};
    pad[0] = static_cast<char>(i);
    e.schedule_at(1.0, [&order, pad] { order.push_back(pad[0]); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// The 4-ary heap against a reference sort: scrambled times with duplicates,
// plus a second wave scheduled mid-run so pool slots get recycled while the
// heap is live.
TEST(Engine, HeapOrdersScrambledTimesWithRecycledSlots) {
  Engine e;
  std::vector<std::pair<double, int>> fired;
  const double times[] = {5, 1, 3, 1, 4, 2, 5, 0, 2, 3, 1, 4};
  int tag = 0;
  for (double t : times) {
    e.schedule_at(t, [&fired, &e, t, tag] {
      fired.emplace_back(t, tag);
      if (t < 2.0) {
        // Second wave: reuses slots freed by already-fired events.
        e.schedule_at(t + 10.0, [&fired, t, tag] {
          fired.emplace_back(t + 10.0, tag);
        });
      }
    });
    ++tag;
  }
  e.run();
  ASSERT_EQ(fired.size(), 12u + 4u);  // 4 first-wave times are < 2.0
  // (time, insertion order) must be non-decreasing lexicographically within
  // each wave; across the whole log times are non-decreasing.
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

// ---- Reserved sequence numbers ----

/// One side of a twin-engine script. Both sides run the same seeded events;
/// a sorted batch of bucket times is scheduled eagerly (every bucket at
/// once) on one side and lazily on the other: reserve one seq per bucket,
/// push only bucket 0, and have bucket i re-arm bucket i+1 before it runs.
class ScriptTwin {
 public:
  ScriptTwin(std::uint64_t seed, bool lazy) : seed_(seed), lazy_(lazy) {}

  Engine& engine() { return engine_; }
  const std::vector<std::uint64_t>& fired() const { return fired_; }

  /// Top-level script: foreign events and batches on a 1/4 time grid, so
  /// buckets tie with foreign events and with other batches' buckets.
  void load() {
    Rng rng(seed_);
    const std::size_t ops = 3 + rng.below(10);
    for (std::size_t op = 0; op < ops; ++op) {
      const Time at = static_cast<Time>(rng.below(12)) / 4.0;
      if (rng.flip()) {
        foreign(mix(op, 0xf0), at, 0);
      } else {
        batch(mix(op, 0xba), at, 1 + rng.below(5), 0);
      }
    }
  }

 private:
  struct Batch {
    std::uint64_t tag;
    std::vector<Time> times;  ///< strictly increasing
    std::uint64_t seq0;
    int depth;
  };

  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  void foreign(std::uint64_t tag, Time at, int depth) {
    engine_.schedule_at(at, [this, tag, depth] { fire(tag, depth); });
  }

  /// `buckets` times from `first` on, each 1/4 or 1/2 after the last.
  void batch(std::uint64_t tag, Time first, std::uint64_t buckets,
             int depth) {
    std::vector<Time> times{first};
    for (std::uint64_t i = 1; i < buckets; ++i) {
      times.push_back(times.back() + 0.25 * static_cast<Time>(
                                                1 + mix(tag, i) % 2));
    }
    if (!lazy_) {
      for (std::size_t i = 0; i < times.size(); ++i) {
        engine_.schedule_at(times[i], [this, tag, i, depth] {
          fire(mix(tag, i), depth);
        });
      }
      return;
    }
    const std::uint64_t seq0 = engine_.reserve_seqs(buckets);
    arm(std::make_shared<Batch>(Batch{tag, std::move(times), seq0, depth}),
        0);
  }

  void arm(std::shared_ptr<Batch> b, std::size_t i) {
    const Time at = b->times[i];
    engine_.schedule_reserved(at, b->seq0 + i, [this, b, i] {
      if (i + 1 < b->times.size()) arm(b, i + 1);
      fire(mix(b->tag, i), b->depth);
    });
  }

  /// Logs the event, then (to a bounded depth) schedules nested work from
  /// inside it: a foreign event, a batch, or both, possibly at now().
  void fire(std::uint64_t tag, int depth) {
    fired_.push_back(tag);
    if (depth >= 3) return;
    const std::uint64_t r = mix(seed_, tag);
    const Time at = engine_.now() + 0.25 * static_cast<Time>((r >> 8) % 3);
    switch (r % 4) {
      case 0:
        foreign(mix(tag, 1), at, depth + 1);
        break;
      case 1:
        batch(mix(tag, 2), at, 1 + (r >> 16) % 4, depth + 1);
        break;
      case 2:
        batch(mix(tag, 2), at, 2 + (r >> 16) % 3, depth + 1);
        foreign(mix(tag, 1), at, depth + 1);
        break;
      default:
        break;
    }
  }

  std::uint64_t seed_;
  bool lazy_;
  Engine engine_;
  std::vector<std::uint64_t> fired_;
};

TEST(Engine, ReservedSeqsFireLikeEagerSchedule) {
  std::size_t lazy_events = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    ScriptTwin eager(seed, /*lazy=*/false);
    ScriptTwin lazy(seed, /*lazy=*/true);
    eager.load();
    lazy.load();
    ASSERT_EQ(eager.engine().pending(), lazy.engine().pending()) << seed;

    // Step by step up to a seeded cutoff, then a budgeted run, then drain.
    const std::size_t cutoff = Rng(seed ^ 0x5eed).below(40);
    for (std::size_t i = 0; i < cutoff; ++i) {
      const bool stepped = eager.engine().step();
      ASSERT_EQ(stepped, lazy.engine().step()) << seed;
      ASSERT_EQ(eager.fired(), lazy.fired()) << seed << " step " << i;
      ASSERT_EQ(eager.engine().pending(), lazy.engine().pending())
          << seed << " step " << i;
      ASSERT_EQ(eager.engine().now(), lazy.engine().now()) << seed;
    }
    const Engine::RunResult a = eager.engine().run(7);
    const Engine::RunResult b = lazy.engine().run(7);
    ASSERT_EQ(a.events_processed, b.events_processed) << seed;
    ASSERT_EQ(a.budget_exhausted, b.budget_exhausted) << seed;
    ASSERT_EQ(eager.engine().pending(), lazy.engine().pending()) << seed;
    ASSERT_EQ(eager.engine().idle(), lazy.engine().idle()) << seed;

    eager.engine().run();
    lazy.engine().run();
    ASSERT_EQ(eager.fired(), lazy.fired()) << seed;
    EXPECT_TRUE(lazy.engine().idle()) << seed;
    lazy_events += lazy.fired().size();
  }
  EXPECT_GT(lazy_events, 64u * 10u);  // the scripts are not trivial
}

TEST(Engine, ReservedSeqsCountAsPending) {
  Engine e;
  const std::uint64_t seq0 = e.reserve_seqs(3);
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_FALSE(e.idle());
  // A later schedule_at takes the seq after the reservation: at equal time
  // it fires after every reserved seq.
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(9); });
  e.schedule_reserved(1.0, seq0 + 2, [&] { order.push_back(2); });
  e.schedule_reserved(1.0, seq0, [&] { order.push_back(0); });
  EXPECT_EQ(e.pending(), 4u);
  e.schedule_reserved(1.0, seq0 + 1, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_TRUE(e.idle());
}

TEST(Engine, ReservedPushWithoutReservationThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_reserved(1.0, 0, [] {}), contract_violation);
  const std::uint64_t seq = e.reserve_seqs(1);
  e.schedule_reserved(1.0, seq, [] {});
  // The one reservation is spent.
  EXPECT_THROW(e.schedule_reserved(1.0, seq, [] {}), contract_violation);
  // A seq never handed out is not outstanding either.
  e.reserve_seqs(1);
  EXPECT_THROW(e.schedule_reserved(1.0, seq + 5, [] {}), contract_violation);
  EXPECT_THROW(e.reserve_seqs(0), contract_violation);
}

TEST(Engine, ReservedPushIntoThePastThrows) {
  Engine e;
  const std::uint64_t seq = e.reserve_seqs(1);
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_reserved(4.0, seq, [] {}), contract_violation);
  EXPECT_EQ(e.pending(), 1u);  // the failed push spent nothing
  e.schedule_reserved(5.0, seq, [] {});
  EXPECT_EQ(e.run().events_processed, 1u);
}

}  // namespace
}  // namespace asyncdr::sim
