// Event-driven peer base class. Concrete protocol peers (and Byzantine
// attack peers) override on_start()/on_message() and use the protected
// helpers to talk to the network and the source. A peer finishes by calling
// finish(output); after that it ignores all further deliveries, matching the
// paper's terminated peers.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/bitvec.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace asyncdr::dr {

class World;
struct RecoveryState;

/// Base class for all peers in a DR world.
class Peer : public sim::Receiver {
 public:
  Peer() = default;
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;
  ~Peer() override;

  [[nodiscard]] sim::PeerId id() const { return id_; }
  /// Number of peers in the world.
  [[nodiscard]] std::size_t k() const;
  /// Number of input bits.
  [[nodiscard]] std::size_t n() const;

  [[nodiscard]] bool terminated() const { return terminated_; }
  [[nodiscard]] const BitVec& output() const { return output_; }
  [[nodiscard]] sim::Time termination_time() const { return termination_time_; }

  /// Invoked once at the peer's (adversary-chosen) start time.
  virtual void on_start() = 0;

  /// Invoked *instead of* on_start when the world revives this incarnation
  /// after a crash (crash-recovery worlds only). `state` carries the
  /// replayed journal. The default ignores the journal and cold-starts;
  /// recoverable protocols override it to resume from the recovered bits.
  virtual void on_restart(const RecoveryState& state);

  /// One-line description of what the peer is doing / waiting on, for the
  /// stall report a run emits when peers fail to terminate. Protocols
  /// override this to expose their wait state (phase, pending quorums, ...).
  [[nodiscard]] virtual std::string status() const;

  /// Modeled heap bytes of this peer's state, charged to `dr.peer.state`
  /// at each memory-timeline epoch. The base covers the output array;
  /// protocols with large working sets (interval books, segment caches)
  /// override and add their own components via obs::modeled_alloc_bytes.
  [[nodiscard]] virtual std::size_t memory_bytes() const;

  /// sim::Receiver — routes to on_message unless terminated/crashed.
  void deliver(const sim::Message& msg) final;

 protected:
  /// Handles one delivered payload.
  virtual void on_message(sim::PeerId from, const sim::Payload& payload) = 0;

  void send(sim::PeerId to, sim::PayloadPtr payload);
  void broadcast(sim::PayloadPtr payload);

  /// One batch of ascending, non-empty, disjoint runs (Source::query_runs):
  /// the only download path, one bit or one range being a batch of one run.
  BitVec query_runs(std::span<const Interval> runs);

  [[nodiscard]] sim::Time now() const;

  /// True iff this peer is currently severed from the network. Crash-point
  /// sentinels can kill a peer synchronously inside a handler; long
  /// handlers check this to stop doing work as a ghost.
  [[nodiscard]] bool crashed() const;

  /// True iff the world journals downloads (crash-recovery enabled).
  [[nodiscard]] bool journaling() const;
  /// Write-ahead helpers: append what was just downloaded / a phase
  /// checkpoint to this peer's journal. No-ops returning true when
  /// journaling is off. A false return means a crash-point sentinel killed
  /// this peer mid-append — stop immediately.
  ///
  /// journal_runs journals a query_runs batch: one bits record per run,
  /// `values` holding the runs' bits back to back. A kill between records
  /// leaves a replayable prefix of the runs.
  bool journal_runs(std::span<const Interval> runs, const BitVec& values);
  bool journal_checkpoint(const std::string& name, std::uint64_t value);
  /// Credits recovered bits this incarnation did *not* re-query against the
  /// run's queries_saved counter (recovery accounting).
  void credit_queries_saved(std::size_t bits);

  /// Opens a named protocol phase for this peer (closing the previous one).
  /// All source queries and sends from now until the next begin_phase() or
  /// finish() are attributed to it in RunReport's per-phase breakdown, and
  /// the phase appears as a timeline slice in exported traces. Phase names
  /// should be the paper's own stage names ("committee-election", ...).
  void begin_phase(std::string name);

  /// Records the output array and stops processing messages.
  void finish(BitVec output);

  /// Per-peer deterministic random stream (split off the config seed).
  Rng& rng() { return rng_; }

  World& world() { return *world_; }
  [[nodiscard]] const World& world() const { return *world_; }

 private:
  friend class World;
  void bind(World* world, sim::PeerId id, Rng rng);

  World* world_ = nullptr;
  sim::PeerId id_ = sim::kNoPeer;
  Rng rng_{0};
  bool terminated_ = false;
  BitVec output_;
  sim::Time termination_time_ = 0;
};

}  // namespace asyncdr::dr
