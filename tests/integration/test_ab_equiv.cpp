// Golden A/B equivalence for broadcast bucketing. A broadcast must be
// observationally IDENTICAL to its definition as k-1 unicast sends:
//
//   for to != from: if crashed(from) stop; send(from, to, payload)
//
// which is what the one-event-per-recipient reference layout did. Two
// checks pin that:
//
//  * A twin-network differential test runs seeded random scripts on two
//    Networks: one calls broadcast(), the other runs the expanded-send
//    oracle above. Per-message observer logs, link diagnostics and unit
//    counts must agree exactly, across crashes, revivals, multi-unit
//    payloads, fixed, per-message and grid-quantized latencies (whose
//    broadcast waves tie with foreign events), mid-broadcast hook crashes
//    and the chaos delivery stressor.
//  * Six protocol scenarios pin their full trace text, their complete
//    RunReport rendering (engine event count included) and their payload
//    pool peak to fingerprints recorded while the reference layout still
//    lived in the simulator and this suite proved the two layouts
//    byte-identical. Four were re-pinned when World::run began stopping
//    once the outcome is fixed: each new trace is a prefix of the old one,
//    and each report differs only in its event count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "chaos/stressors.hpp"
#include "common/rng.hpp"
#include "dr/world.hpp"
#include "protocols/runner.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace asyncdr {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- Twin-network differential test: broadcast() vs the send() oracle ----

struct ScriptPayload final : sim::Payload {
  ScriptPayload(std::size_t bits, int depth) : bits_(bits), depth_(depth) {}
  std::size_t size_bits() const override { return bits_; }
  std::string type_name() const override { return "ScriptPayload"; }
  std::size_t bits_;
  int depth_;  ///< reaction generation: scripted ops are 0
};

/// One observer callback, as both twins must see it.
struct LogEntry {
  char kind = '?';  ///< 'S'end, 'D'eliver, 'X' drop
  sim::Time at = 0;
  sim::PeerId from = 0;
  sim::PeerId to = 0;
  std::uint64_t id = 0;
  sim::Time sent_at = 0;
  std::size_t units = 0;
  bool operator==(const LogEntry&) const = default;
};

/// A pure function of (seed, message), so both twins draw the same value
/// for the same message regardless of how its delivery was scheduled.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return sim::payload_hash_mix(sim::payload_hash_mix(seed, a), b);
}

/// The seeded per-message latency adversary: a stateful stream, so the
/// twins agree only if they consult it for the same messages in the same
/// order.
class StreamLatency final : public sim::LatencyPolicy {
 public:
  explicit StreamLatency(std::uint64_t seed) : rng_(seed) {}
  sim::Time propagation(const sim::Message&) override {
    // Multiples of 1/8 in (0, 1]: same-arrival buckets still form.
    return static_cast<sim::Time>(1 + rng_.below(8)) / 8.0;
  }

 private:
  Rng rng_;
};

/// Delays quantized to {0.25, 0.5, 0.75, 1}: the grid the script's ops sit
/// on, so a broadcast's later buckets tie with foreign events at the same
/// instant and only the engine's seq tie-break orders them.
class QuantizedLatency final : public sim::LatencyPolicy {
 public:
  explicit QuantizedLatency(std::uint64_t seed) : rng_(seed) {}
  sim::Time propagation(const sim::Message&) override {
    return static_cast<sim::Time>(1 + rng_.below(4)) / 4.0;
  }

 private:
  Rng rng_;
};

struct ScriptKnobs {
  std::uint64_t seed = 0;
  std::size_t k = 2;
  std::size_t message_bits = 8;
  /// 0: FixedLatency(1), 1: FixedLatency(0.5), 2: stream, 3: quantized
  int latency = 0;
  bool hook = false;
  bool stressor = false;
};

class Twin final : public sim::NetworkObserver {
 public:
  Twin(const ScriptKnobs& knobs, bool oracle)
      : knobs_(knobs),
        oracle_(oracle),
        net_(engine_, knobs.k, knobs.message_bits),
        receivers_(knobs.k) {
    for (sim::PeerId id = 0; id < knobs.k; ++id) {
      receivers_[id].twin = this;
      net_.attach(id, &receivers_[id]);
    }
    net_.set_observer(this);
    if (knobs.latency == 1) {
      net_.set_latency_policy(std::make_unique<sim::FixedLatency>(0.5));
    } else if (knobs.latency == 2) {
      net_.set_latency_policy(
          std::make_unique<StreamLatency>(knobs.seed ^ 0x1a7));
    } else if (knobs.latency == 3) {
      net_.set_latency_policy(
          std::make_unique<QuantizedLatency>(knobs.seed ^ 0x9a7));
    }
    if (knobs.stressor) {
      net_.set_delivery_stressor(std::make_unique<chaos::ChaosStressor>(
          Rng(knobs.seed).split(0xc4a05ull),
          chaos::ChaosStressor::Knobs{
              .duplicate_prob = 0.3, .burst_prob = 0.3, .hold_max = 2.0}));
    }
    if (knobs.hook) {
      // Each peer dies right before its (budget+1)-th send, as a
      // CrashPlan::add_after_sends victim does — often mid-broadcast.
      send_budget_.resize(knobs.k);
      for (sim::PeerId id = 0; id < knobs.k; ++id) {
        send_budget_[id] = static_cast<int>(mix(knobs.seed, 0x400c, id) % 12);
      }
      net_.set_pre_send_hook([this](const sim::Message& msg) {
        if (send_budget_[msg.from]-- == 0) net_.crash(msg.from);
      });
    }
  }

  sim::Engine& engine() { return engine_; }
  const std::vector<LogEntry>& log() const { return log_; }
  const std::vector<std::uint64_t>& probes() const { return probes_; }

  /// broadcast() on one twin, the expanded-send oracle on the other.
  void broadcast(sim::PeerId from, std::size_t bits, int depth) {
    auto payload = std::make_shared<ScriptPayload>(bits, depth);
    if (!oracle_) {
      net_.broadcast(from, std::move(payload));
      return;
    }
    for (sim::PeerId to = 0; to < knobs_.k; ++to) {
      if (to == from) continue;
      if (net_.is_crashed(from)) return;
      net_.send(from, to, payload);
    }
  }
  void send(sim::PeerId from, sim::PeerId to, std::size_t bits, int depth) {
    net_.send(from, to, std::make_shared<ScriptPayload>(bits, depth));
  }
  void crash(sim::PeerId id) { net_.crash(id); }
  void revive(sim::PeerId id) { net_.revive(id); }

  /// Snapshot of every diagnostic the layouts could disagree on.
  void probe() {
    const std::size_t k = knobs_.k;
    probes_.push_back(net_.total_in_flight());
    probes_.push_back(net_.active_links());
    for (sim::PeerId from = 0; from < k; ++from) {
      probes_.push_back(net_.sent_units(from));
      for (sim::PeerId to = 0; to < k; ++to) {
        probes_.push_back(net_.in_flight(from, to));
      }
    }
    for (const sim::Network::BusyLink& l : net_.busy_links()) {
      probes_.push_back(l.from);
      probes_.push_back(l.to);
      probes_.push_back(l.in_flight);
    }
    probes_.push_back(~std::uint64_t{0});  // probe separator
  }

  void on_send(const sim::Message& msg, std::size_t units) override {
    record('S', msg, units);
  }
  void on_deliver(const sim::Message& msg) override { record('D', msg, 0); }
  void on_drop(const sim::Message& msg) override { record('X', msg, 0); }

 private:
  /// Receivers react to first-generation mail: replies, re-broadcasts and
  /// crashes issued from inside a delivery — including from inside a
  /// bucket, before its later members are delivered.
  struct Reactor final : sim::Receiver {
    Twin* twin = nullptr;
    void deliver(const sim::Message& msg) override {
      const auto& p = static_cast<const ScriptPayload&>(*msg.payload);
      if (p.depth_ > 0) return;
      const std::uint64_t r = mix(twin->knobs_.seed, msg.id, msg.to);
      const std::size_t bits = 1 + (r >> 8) % (3 * twin->knobs_.message_bits);
      switch (r % 8) {
        case 0:
          twin->send(msg.to, msg.from, bits, 1);
          break;
        case 1:
          twin->broadcast(msg.to, bits, 1);
          break;
        case 2:
          twin->crash((r >> 20) % twin->knobs_.k);
          break;
        default:
          break;
      }
    }
  };

  void record(char kind, const sim::Message& msg, std::size_t units) {
    log_.push_back(LogEntry{kind, engine_.now(), msg.from, msg.to, msg.id,
                            msg.sent_at, units});
  }

  ScriptKnobs knobs_;
  bool oracle_;
  sim::Engine engine_;
  sim::Network net_;
  std::vector<Reactor> receivers_;
  std::vector<int> send_budget_;
  std::vector<LogEntry> log_;
  std::vector<std::uint64_t> probes_;
};

/// Schedules the same seeded script on a twin: ops at multiples of 1/4,
/// probes off the 1/8 grid that fixed and stream latencies arrive on, so
/// no probe splits a bucket from the copies it stands for.
void load_script(Twin& twin, const ScriptKnobs& knobs) {
  Rng rng(knobs.seed);
  const std::size_t ops = 4 + rng.below(20);
  for (std::size_t i = 0; i < ops; ++i) {
    const sim::Time at = static_cast<sim::Time>(rng.below(24)) / 4.0;
    const sim::PeerId a = rng.below(knobs.k);
    const sim::PeerId b = rng.below(knobs.k);
    const std::size_t bits = 1 + rng.below(4 * knobs.message_bits);
    switch (rng.below(10)) {
      case 0:
        twin.engine().schedule_at(at, [&twin, a] { twin.crash(a); });
        break;
      case 1:
        twin.engine().schedule_at(at, [&twin, a] { twin.revive(a); });
        break;
      case 2:
      case 3:
        twin.engine().schedule_at(
            at, [&twin, a, b, bits] { twin.send(a, b, bits, 0); });
        break;
      default:
        twin.engine().schedule_at(
            at, [&twin, a, bits] { twin.broadcast(a, bits, 0); });
        break;
    }
  }
  for (int i = 0; i < 24; ++i) {
    twin.engine().schedule_at(0.0937 + 0.5 * i, [&twin] { twin.probe(); });
  }
}

ScriptKnobs knobs_for(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  ScriptKnobs knobs;
  knobs.seed = seed;
  knobs.k = 2 + rng.below(8);
  knobs.message_bits = rng.flip() ? 8 : 64;
  knobs.latency = static_cast<int>(rng.below(4));
  knobs.hook = rng.below(4) == 0;
  knobs.stressor = rng.below(4) == 0;
  return knobs;
}

std::string describe(const ScriptKnobs& knobs) {
  return "seed=" + std::to_string(knobs.seed) + " k=" +
         std::to_string(knobs.k) + " B=" + std::to_string(knobs.message_bits) +
         " latency=" + std::to_string(knobs.latency) +
         " hook=" + std::to_string(knobs.hook) +
         " stressor=" + std::to_string(knobs.stressor);
}

TEST(BroadcastOracle, TwinNetworksAgreeOnSeededScripts) {
  constexpr std::uint64_t kScripts = 256;
  std::size_t shared_runs = 0;
  std::size_t quantized_runs = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    const ScriptKnobs knobs = knobs_for(seed);
    Twin bucketed(knobs, /*oracle=*/false);
    Twin oracle(knobs, /*oracle=*/true);
    load_script(bucketed, knobs);
    load_script(oracle, knobs);
    const std::size_t bucketed_events =
        bucketed.engine().run().events_processed;
    const std::size_t oracle_events = oracle.engine().run().events_processed;

    const std::vector<LogEntry>& a = bucketed.log();
    const std::vector<LogEntry>& b = oracle.log();
    ASSERT_EQ(a.size(), b.size()) << describe(knobs);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i] == b[i])
          << describe(knobs) << ": observer logs diverge at entry " << i
          << " (" << a[i].kind << " id " << a[i].id << " vs " << b[i].kind
          << " id " << b[i].id << ")";
    }
    bucketed.probe();
    oracle.probe();
    ASSERT_EQ(bucketed.probes(), oracle.probes()) << describe(knobs);
    // Bucketing is the only difference: never more events than the oracle.
    EXPECT_LE(bucketed_events, oracle_events) << describe(knobs);
    if (!knobs.hook && !knobs.stressor) ++shared_runs;
    if (knobs.latency == 3) ++quantized_runs;
  }
  // The shared-path broadcast (no hook, no stressor) is well covered, and
  // so are waves tying with foreign events on the quantized grid.
  EXPECT_GT(shared_runs, kScripts / 3);
  EXPECT_GT(quantized_runs, kScripts / 8);
}

// ---- Six protocol scenarios, pinned to golden fingerprints ----

struct Capture {
  std::string trace_text;
  std::string report_text;
  bool ok = false;
  std::uint64_t payload_pool_peak = 0;
};

Capture run_traced(proto::Scenario s) {
  Capture cap;
  auto inner = std::move(s.instrument);
  s.instrument = [inner = std::move(inner)](dr::World& world) {
    world.enable_trace();
    if (inner) inner(world);
  };
  s.post_run = [&cap](dr::World& world, const dr::RunReport& report) {
    const sim::Trace* trace = world.trace();
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->dropped_events(), 0u);  // a truncated trace proves nothing
    std::string text;
    for (const sim::TraceEvent& ev : trace->events()) {
      text += ev.to_string();
      text += '\n';
    }
    cap.trace_text = std::move(text);
    cap.report_text = report.to_string();
    cap.ok = report.ok();
    for (const obs::MemPoolStats& pool : report.mem_pools) {
      if (pool.name == "sim.msg.payloads") cap.payload_pool_peak = pool.peak;
    }
  };
  proto::run_scenario(s);
  return cap;
}

struct Golden {
  std::uint64_t trace_fnv;
  std::uint64_t report_fnv;
  std::uint64_t payload_pool_peak;
};

void expect_golden(const char* what, const proto::Scenario& s,
                   const Golden& golden) {
  const Capture cap = run_traced(s);
  ASSERT_FALSE(cap.trace_text.empty()) << what;
  EXPECT_TRUE(cap.ok) << what;
  EXPECT_EQ(fnv1a(cap.trace_text), golden.trace_fnv) << what;
  EXPECT_EQ(fnv1a(cap.report_text), golden.report_fnv)
      << what << ":\n" << cap.report_text;
  EXPECT_EQ(cap.payload_pool_peak, golden.payload_pool_peak) << what;
}

dr::Config small_cfg(std::size_t n, std::size_t k, double beta,
                     std::uint64_t seed, std::size_t message_bits = 256) {
  return dr::Config{
      .n = n, .k = k, .beta = beta, .message_bits = message_bits, .seed = seed};
}

// The randomized-committee protocols need k large enough that RandParams
// does not fall back to naive (see test_byz2cycle); everything else runs at
// genuinely small k so the suite stays fast.
dr::Config rand_cfg(std::uint64_t seed) {
  return small_cfg(1 << 12, 128, 0.125, seed, /*message_bits=*/1024);
}

TEST(AbEquivalence, NaiveFaultFree) {
  proto::Scenario s;
  s.cfg = small_cfg(256, 4, 0.0, 101, 128);
  s.honest = proto::make_naive();
  // Naive peers query the source directly -- no peer-to-peer payloads.
  expect_golden("naive", s,
                {0x6b350f594ffdf461ull, 0x0f3a8f52884c4c27ull, 0});
}

TEST(AbEquivalence, CrashOneFixedLatencyBucketsMultipleRecipients) {
  // FixedLatency collapses every broadcast's arrivals onto one instant:
  // maximal bucket occupancy, the shared Link's most aggressive batching.
  proto::Scenario s;
  s.cfg = small_cfg(512, 8, 0.125, 102);
  s.honest = proto::make_crash_one();
  s.latency = proto::fixed_latency(1.0);
  s.crashes.add_at_time(3, 0.7);
  expect_golden("crash_one", s,
                {0x2a61cf8eef89fb46ull, 0xeb7a3d8ff9b75e6cull, 768});
}

TEST(AbEquivalence, CrashMultiWithMidBroadcastHookCrash) {
  // add_after_sends drives the pre-send hook: the sender dies between the
  // individual sends of a broadcast, cutting a prefix.
  proto::Scenario s;
  s.cfg = small_cfg(1024, 6, 0.34, 103);
  s.honest = proto::make_crash_multi();
  s.crashes.add_after_sends(1, 3);
  s.crashes.add_at_time(4, 1.3);
  expect_golden("crash_multi", s,
                {0xddcd135e4b28f89eull, 0x466da2168bf2b0fbull, 496});
}

TEST(AbEquivalence, CommitteeUnderLiarsAndDeliveryStressor) {
  // The stressor samples its RNG per recipient (copies, then extra delay per
  // copy): the bucketed broadcast must consume the stream in exactly the
  // per-recipient order or every later delay diverges.
  proto::Scenario s;
  s.cfg = small_cfg(256, 8, 0.25, 104, 1024);
  s.honest = proto::make_committee();
  s.byzantine =
      proto::make_committee_liar(proto::CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 104);
  s.latency = proto::fixed_latency(0.5);
  s.stressor = chaos::make_chaos_stressor(
      {.duplicate_prob = 0.4, .burst_prob = 0.3, .hold_max = 2.0});
  expect_golden("committee", s,
                {0x69bc92790c05d7f1ull, 0x660c54d8f8955af2ull, 768});
}

TEST(AbEquivalence, TwoCycleUnderVoteStuffing) {
  proto::Scenario s;
  s.cfg = rand_cfg(105);
  s.honest = proto::make_two_cycle(2.0);
  s.byzantine = proto::make_vote_stuffer(2.0, /*target_segment=*/0);
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 105);
  expect_golden("two_cycle", s,
                {0x31d66b96c5cf739dull, 0xdd2ddf03245737a3ull, 43776});
}

TEST(AbEquivalence, MultiCycleUnderSilentByzantine) {
  proto::Scenario s;
  s.cfg = rand_cfg(106);
  s.honest = proto::make_multi_cycle(2.0);
  s.byzantine = proto::make_silent_byz();
  s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty(), 106);
  expect_golden("multi_cycle", s,
                {0xbc16d3dd3cf69168ull, 0x3b52f43d832bcae8ull, 38656});
}

}  // namespace
}  // namespace asyncdr
