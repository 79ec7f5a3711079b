// One-stop harness: declare a Scenario (model parameters, protocol factory,
// fault pattern, scheduling adversary), run it, get a RunReport. Tests and
// benches are thin layers over this.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "adversary/latency.hpp"
#include "common/bitvec.hpp"
#include "dr/world.hpp"
#include "protocols/attacks.hpp"
#include "protocols/attacks2.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/committee.hpp"
#include "protocols/crash_multi.hpp"
#include "protocols/crash_one.hpp"
#include "protocols/naive.hpp"
#include "protocols/params.hpp"

namespace asyncdr::proto {

/// Builds one peer for the given world configuration and ID.
using PeerFactory =
    std::function<std::unique_ptr<dr::Peer>(const dr::Config&, sim::PeerId)>;

/// Builds the scheduling adversary for a world (given access to the config
/// so it can derive a seeded RNG).
using LatencyFactory =
    std::function<std::unique_ptr<sim::LatencyPolicy>(const dr::Config&)>;

/// Builds a beyond-model delivery stressor (chaos layer). A scenario with a
/// stressor installed runs OUTSIDE the paper's model: its outcome measures
/// graceful degradation, not in-model correctness.
using StressorFactory =
    std::function<std::unique_ptr<sim::DeliveryStressor>(const dr::Config&)>;

/// Crash-recovery side of a scenario. When `factory` is set the world runs
/// with enable_recovery: restart instructions in the crash plan become
/// valid, and the plan below can additionally kill peers at journal
/// crash-point sentinels and corrupt journals mid-run.
struct RecoveryPlan {
  PeerFactory factory;  ///< null = crash-stop world (default)
  dr::RecoveryOptions options;

  /// Kill `peer` the nth time it hits the given journal sentinel; revive it
  /// `restart_delay` later (plus backoff/jitter), or leave it dead if the
  /// delay is negative. The victim counts against the fault budget.
  struct CrashPointKill {
    sim::PeerId peer = sim::kNoPeer;
    dr::CrashPoint point = dr::CrashPoint::kAppendCommit;
    std::size_t nth = 1;
    sim::Time restart_delay = 1.0;
  };
  std::vector<CrashPointKill> kills;

  /// Journal corruption injected at virtual time `at`: the revived peer
  /// must detect it and fall back toward cold start without over-claiming.
  struct Corruption {
    enum class Mode { kTruncateTail, kFlipBit, kClear };
    sim::PeerId peer = sim::kNoPeer;
    Mode mode = Mode::kTruncateTail;
    std::size_t amount = 0;  ///< bytes to drop / bit index to flip
    sim::Time at = 0;
  };
  std::vector<Corruption> corruptions;

  [[nodiscard]] bool enabled() const { return factory != nullptr; }
};

/// A complete experiment description.
struct Scenario {
  dr::Config cfg;
  std::optional<BitVec> input;  ///< default: random, derived from cfg.seed

  PeerFactory honest;             ///< required
  PeerFactory byzantine;          ///< required iff byz_ids non-empty
  std::vector<sim::PeerId> byz_ids;

  adv::CrashPlan crashes;
  RecoveryPlan recovery;   ///< crash-recovery model; default: crash-stop
  LatencyFactory latency;  ///< default: seeded UniformLatency
  StressorFactory stressor;  ///< beyond-model; default: none
  std::map<sim::PeerId, sim::Time> start_times;

  std::size_t max_events = sim::Engine::kDefaultEventBudget;

  /// Instrumentation hook: called on the fully assembled world (peers,
  /// crashes, start times installed) just before run(). Enable tracing or
  /// attach metrics collectors here.
  std::function<void(dr::World&)> instrument;
  /// Called with the world still alive and the finished report — the only
  /// way to read world-owned state (the trace, source counters) through a
  /// run_scenario call.
  std::function<void(dr::World&, const dr::RunReport&)> post_run;
};

/// Deterministic pseudo-random input array.
BitVec random_input(std::size_t n, std::uint64_t seed);

/// Samples `count` distinct Byzantine peer IDs from [0, cfg.k).
std::vector<sim::PeerId> pick_faulty(const dr::Config& cfg, std::size_t count,
                                     std::uint64_t salt = 0);

/// Assembles the world and runs it.
dr::RunReport run_scenario(const Scenario& scenario);

// ---- Honest-protocol factories ----
PeerFactory make_naive();
PeerFactory make_crash_one();
PeerFactory make_crash_multi(CrashMultiPeer::Options opts = {});
PeerFactory make_committee(CommitteePeer::Options opts = {});
/// Derives RandParams from the config with the given concentration constant.
PeerFactory make_two_cycle(double concentration = 3.0, double tau_margin = 2.0);
PeerFactory make_multi_cycle(double concentration = 3.0, double tau_margin = 2.0);
/// Explicit-parameter 2-cycle protocol (used by the lower-bound experiments
/// to force a sub-n-query protocol into the majority-Byzantine regime, and
/// by the threshold-sensitivity ablation).
PeerFactory make_two_cycle_with(RandParams params);

// ---- Byzantine attack factories ----
PeerFactory make_silent_byz();
PeerFactory make_garbage_byz();
PeerFactory make_committee_liar(CommitteeLiarPeer::Mode mode);
PeerFactory make_vote_stuffer(double concentration = 3.0,
                              std::size_t target_segment = 0);
PeerFactory make_equivocator(double concentration = 3.0);
PeerFactory make_comb_stuffer(double concentration = 3.0,
                              std::size_t target_segment = 0);
PeerFactory make_quorum_rusher(double concentration = 3.0);

// ---- Scheduling adversary factories ----
LatencyFactory uniform_latency(sim::Time lo = 0.05, sim::Time hi = 1.0);
LatencyFactory fixed_latency(sim::Time delay = 1.0);
LatencyFactory seniority_latency();
LatencyFactory sender_delay_latency(std::vector<sim::PeerId> slow_senders,
                                    sim::Time slow, sim::Time fast = 0.01);

}  // namespace asyncdr::proto
