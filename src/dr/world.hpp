// A World wires one DR-model instance together: the engine, the clique
// network, the trusted source, the peers (honest and faulty), and the crash
// schedule. Running it produces a RunReport with the paper's three
// complexity measures and a correctness verdict.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "dr/config.hpp"
#include "dr/journal.hpp"
#include "dr/peer.hpp"
#include "dr/phase.hpp"
#include "dr/source.hpp"
#include "obs/critpath.hpp"
#include "obs/mem.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"

namespace asyncdr::dr {

/// Diagnostics emitted when a run stalls: the event budget was exhausted or
/// nonfaulty peers were left unterminated when the engine went idle. Names
/// the stuck peers, what each last did (and says it is waiting on, via
/// Peer::status()), and which links still carried in-flight messages.
struct StallReport {
  struct PeerState {
    sim::PeerId id = sim::kNoPeer;
    bool crashed = false;
    sim::Time last_send = -1;      ///< last accepted send; < 0 = never
    sim::Time last_delivery = -1;  ///< last delivery to it; < 0 = never
    std::uint64_t bits_queried = 0;
    std::string status;      ///< Peer::status()
    std::string last_event;  ///< last trace event, if tracing was on
  };
  struct LinkState {
    sim::PeerId from = sim::kNoPeer;
    sim::PeerId to = sim::kNoPeer;
    std::uint64_t in_flight = 0;  ///< 64-bit: replication stressors multiply copies
  };

  bool budget_exhausted = false;
  std::size_t pending_events = 0;        ///< events still queued at stop
  std::vector<PeerState> stuck_peers;    ///< unterminated nonfaulty peers
  std::vector<LinkState> busy_links;     ///< links with in-flight messages
  std::size_t crashed_peers = 0;
  /// Virtual time at which the bounded trace overflowed and stopped
  /// recording; negative when tracing was off or nothing was dropped. Past
  /// this instant the per-peer last_event lines say nothing.
  sim::Time trace_cutoff = -1;

  [[nodiscard]] std::string to_string() const;
};

/// Restart policy for crash-recovery worlds. Re-registration after a crash
/// backs off exponentially (capped), so restart storms de-synchronize
/// instead of hammering the source in lockstep.
struct RecoveryOptions {
  sim::Time base_delay = 0.5;    ///< backoff before the first re-registration
  double backoff_factor = 2.0;   ///< growth per successive restart
  sim::Time max_delay = 8.0;     ///< backoff cap
  double jitter = 0.5;           ///< uniform extra delay in [0, jitter)
  std::size_t max_restarts = 8;  ///< further restart requests are ignored
  /// A/B switch for benchmarks: ignore the journal on restart (the peer
  /// cold-starts every time). Measures what warm recovery saves.
  bool cold_restart = false;

  /// Deterministic backoff component before restart number
  /// `restarts + 1` (jitter excluded): min(max_delay, base * factor^restarts).
  [[nodiscard]] sim::Time backoff(std::size_t restarts) const;
};

/// Recovery counters accumulated over one run.
struct RecoveryStats {
  std::uint64_t restarts = 0;         ///< successful revivals
  std::uint64_t journal_replays = 0;  ///< replays that recovered >= 1 record
  std::uint64_t cold_fallbacks = 0;   ///< replays of an empty/unusable log
  std::uint64_t torn_tails = 0;       ///< replays that discarded a torn tail
  std::uint64_t bits_recovered = 0;   ///< bits restored from journals
  std::uint64_t queries_saved = 0;    ///< recovered bits peers skipped re-querying
};

/// Outcome of one execution.
struct RunReport {
  bool all_terminated = false;   ///< every nonfaulty peer finished
  bool all_correct = false;      ///< every finished nonfaulty output == X
  bool budget_exhausted = false; ///< engine event budget hit (runaway)

  /// The Download correctness predicate: terminated, correct, not runaway.
  [[nodiscard]] bool ok() const { return all_terminated && all_correct && !budget_exhausted; }

  std::size_t query_complexity = 0;      ///< Q: max bits queried, nonfaulty
  sim::Time time_complexity = 0;         ///< T: last nonfaulty termination
  std::uint64_t message_complexity = 0;  ///< M: unit messages by nonfaulty
  std::uint64_t payload_messages = 0;    ///< send() calls by nonfaulty
  std::uint64_t total_queries = 0;       ///< sum of bits queried, nonfaulty
  /// Engine events processed before the run stopped: at the event that
  /// fixed the outcome, when the engine went idle, or at the budget.
  std::size_t events = 0;

  std::vector<std::size_t> per_peer_queries;  ///< indexed by peer id
  std::vector<sim::PeerId> incorrect_peers;
  std::vector<sim::PeerId> unterminated_peers;
  /// Per-peer outputs (empty BitVec for peers that did not terminate);
  /// consumers like the oracle aggregation read downloaded arrays here.
  std::vector<BitVec> outputs;

  /// One protocol phase aggregated over the nonfaulty peers. Phases appear
  /// in first-entry order; summing bits/units across phases reproduces
  /// total_queries / message_complexity exactly (the implicit "unphased"
  /// span catches unannotated activity).
  struct PhaseBreakdown {
    std::string name;
    std::uint64_t bits_queried = 0;      ///< Q contribution (sum, nonfaulty)
    std::uint64_t unit_messages = 0;     ///< M contribution (sum, nonfaulty)
    std::uint64_t payload_messages = 0;
    sim::Time max_span = 0;  ///< T contribution: max per-peer time in phase
    std::size_t peers = 0;   ///< nonfaulty peers that entered the phase
  };
  std::vector<PhaseBreakdown> phases;

  /// Raw per-peer phase spans (all peers, faulty included) in open order —
  /// the exporters' timeline slices.
  std::vector<PhaseSpan> phase_spans;

  /// Aligned per-phase Q/T/M table (one row per phase).
  [[nodiscard]] std::string phase_table() const;
  /// Aligned per-peer breakdown (one row per phase span).
  [[nodiscard]] std::string peer_phase_table() const;

  /// Recovery counters (all zero on crash-stop worlds).
  RecoveryStats recovery;

  /// Per-subsystem byte accounting at run end (sorted by pool name) and
  /// the high-water mark of the cross-pool sum. Deliberately *not* part
  /// of to_string(): test_ab_equiv pins rendered reports by fingerprint,
  /// and modeled bytes move with container layouts that leave every
  /// simulated statistic unchanged. That suite pins the payload pool's
  /// peak on its own, and golden_mem_k512.json pins every pool.
  std::vector<obs::MemPoolStats> mem_pools;
  std::uint64_t mem_total_peak = 0;

  /// Rendered StallReport, filled iff the run stalled (budget exhausted or
  /// unterminated nonfaulty peers); empty on clean runs.
  std::string stall;

  /// Critical-path analysis of the run, filled by obs::embed_critical_path
  /// on traced runs (run_scenario does this automatically): the
  /// happens-before chain realizing T, attributed per phase / peer / edge
  /// kind, with the reconciliation verdict path_length == T. Absent when
  /// tracing was off. Pure data (see obs/critpath.hpp) — reading it needs
  /// nothing beyond this header.
  std::optional<obs::CriticalPathReport> critical_path;

  [[nodiscard]] std::string to_string() const;
};

/// One DR-model instance.
class World : private sim::NetworkObserver {
 public:
  /// input.size() must equal cfg.n.
  World(Config cfg, BitVec input);

  [[nodiscard]] const Config& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  sim::Network& network() { return net_; }
  [[nodiscard]] const sim::Network& network() const { return net_; }
  Source& source() { return source_; }
  [[nodiscard]] const Source& source() const { return source_; }

  /// Installs the peer implementation for one ID (honest protocol peer or a
  /// Byzantine attack peer). Every ID must be set before run().
  void set_peer(sim::PeerId id, std::unique_ptr<Peer> peer);
  Peer& peer(sim::PeerId id);

  /// Marks a peer as faulty: excluded from the correctness predicate and
  /// from all complexity measures. Byzantine attack peers must be marked.
  void mark_faulty(sim::PeerId id);
  [[nodiscard]] bool is_faulty(sim::PeerId id) const;
  [[nodiscard]] std::size_t faulty_count() const;

  /// Crash-fault helpers; both imply mark_faulty(id).
  void schedule_crash_at(sim::PeerId id, sim::Time t);
  /// Crashes the peer just before its (count+1)-th send — i.e. it gets
  /// exactly `count` more sends out — modelling death mid-broadcast.
  void crash_after_sends(sim::PeerId id, std::uint64_t count);

  /// Adversary-chosen start time (default 0; the model has no simultaneous
  /// start guarantee).
  void set_start_time(sim::PeerId id, sim::Time t);

  /// Builds the replacement peer when a crashed id is revived. Crash-stop
  /// loses all in-memory state — only the journal survives — so recovery
  /// always constructs a fresh incarnation.
  using RestartFactory =
      std::function<std::unique_ptr<Peer>(const Config&, sim::PeerId)>;

  /// Switches the world to the crash-*recovery* fault model: every peer
  /// gets a write-ahead journal (in-memory, sim-owned), and crashed peers
  /// may be revived via schedule_restart_at / restart_after_delay. Call
  /// before run().
  void enable_recovery(RestartFactory factory, RecoveryOptions options = {});
  [[nodiscard]] bool recovery_enabled() const { return journal_store_ != nullptr; }
  /// The journal store (recovery must be enabled). Chaos injectors use the
  /// corruption helpers; everything else goes through Peer's journal_*().
  JournalStore& journal_store();

  /// Revives a crashed peer at absolute time t (exact; callers wanting the
  /// anti-storm backoff use restart_after_delay). A restart of a peer that
  /// is not crashed at that instant is a no-op, as is one past max_restarts.
  void schedule_restart_at(sim::PeerId id, sim::Time t);
  /// Revives a crashed peer `delay` after now, plus the capped exponential
  /// re-registration backoff and deterministic jitter (RecoveryOptions).
  void restart_after_delay(sim::PeerId id, sim::Time delay);
  /// Auto-restart: whenever this peer crashes (by schedule, send hook, or
  /// crash-point kill), schedule restart_after_delay(id, delay).
  void restart_on_crash(sim::PeerId id, sim::Time delay);
  /// Arms a kill-at-crash-point: the peer crashes on the nth time it hits
  /// the given journal sentinel. The victim still counts against the fault
  /// budget — mark_faulty it first.
  void kill_at_crash_point(sim::PeerId id, CrashPoint point, std::size_t nth = 1);
  /// Restarts performed for one peer so far.
  [[nodiscard]] std::size_t restart_count(sim::PeerId id) const;

  /// Enables execution tracing (sends, deliveries, drops, crashes, queries,
  /// terminations). Call before run(). Returns the trace, owned by the
  /// world.
  sim::Trace& enable_trace(std::size_t capacity = 1 << 20);
  /// The trace if enabled, else nullptr.
  sim::Trace* trace() { return trace_.get(); }

  /// Registers an additional network observer (metrics collectors). The
  /// world multiplexes its single network observer slot across the trace,
  /// the phase tracker, and every observer added here. Not owned; must
  /// outlive the run.
  void add_observer(sim::NetworkObserver* observer);

  /// Registers a callback invoked on every accounted source-query batch
  /// (peer, bits) — the metrics-side twin of add_observer.
  using QueryListener = std::function<void(sim::PeerId, std::size_t)>;
  void add_query_listener(QueryListener listener);

  /// Phase spans recorded so far (complete after run(); also copied into
  /// RunReport::phase_spans).
  [[nodiscard]] const std::vector<PhaseSpan>& phase_spans() const {
    return phase_tracker_.spans();
  }

  /// Runs until the outcome is fixed (see DESIGN.md, "Run completion"),
  /// the engine is idle, or the event budget is spent, and reports. The
  /// outcome is fixed once no nonfaulty peer is still running, every pending
  /// event is a network delivery, and no delivery can revive a peer: what
  /// is left can reach only peers that ignore it or faulty ones, so nothing
  /// in the report can move. If the run stalls, the report's `stall` field
  /// carries the rendered StallReport.
  RunReport run(std::size_t max_events = sim::Engine::kDefaultEventBudget);

  /// Builds the stall diagnostics for the current world state (normally
  /// invoked by run() on a stalled outcome; exposed for tests and tools).
  [[nodiscard]] StallReport build_stall_report(bool budget_exhausted) const;

  /// Per-peer RNG stream used to bind peers; exposed so adversaries can
  /// derive their own independent streams from the same master seed.
  [[nodiscard]] Rng adversary_rng(std::uint64_t tag) const;

  /// Finds or creates the world-wide object `name` of type T, built by
  /// make() on first use. It is for state derived from the world's config
  /// alone, such as crash_multi's owner layout, that every peer reads: no
  /// restart resets it, and no mem pool charges it. Reusing a name with a
  /// different T is a wiring bug and throws.
  template <typename T, typename Make>
  T& shared(const std::string& name, Make&& make) {
    for (const SharedObject& obj : shared_) {
      if (obj.name != name) continue;
      ASYNCDR_EXPECTS_MSG(obj.type == std::type_index(typeid(T)),
                          "world object reused with a different type");
      return *static_cast<T*>(obj.value.get());
    }
    auto value = std::make_shared<T>(make());
    shared_.push_back({name, std::type_index(typeid(T)), value});
    return *value;
  }

  /// The per-world byte-accounting registry. Always on: pools are created
  /// up front (stable timeline columns) and wired into the engine, the
  /// network, the trace, and the journal store.
  [[nodiscard]] const obs::MemRegistry& mem() const { return mem_; }

  /// Epoch-sampled per-pool byte timeline recorded by run() (exported as
  /// Perfetto counter tracks). Empty before run().
  [[nodiscard]] const obs::MemTimeline& mem_timeline() const {
    return mem_timeline_;
  }

 private:
  void install_send_hook_if_needed();

  /// Polls the epoch-sampled pools (peer/source state) and appends one
  /// timeline sample at `events` processed.
  void sample_mem(std::uint64_t events);

  /// Every write to faulty_ goes through here, so the running-nonfaulty
  /// count stays exact once run() has computed it.
  void set_faulty(sim::PeerId id, bool faulty);
  /// The run-completion test, evaluated after every event.
  [[nodiscard]] bool outcome_fixed() const;
  /// True iff a live (uncrashed, unterminated) peer holds a delivery-driven
  /// crash trigger — a crash_after_sends count or a crash-point kill —
  /// together with a restart_on_crash policy: a delivery could then crash
  /// it and schedule its revival as a nonfaulty peer.
  [[nodiscard]] bool revival_armed() const;

  /// Immediate crash: marks faulty, severs the network, traces, and fires
  /// the auto-restart policy. Every crash site funnels through here.
  void crash_now(sim::PeerId id);
  /// The scheduled revival itself.
  void do_restart(sim::PeerId id);
  /// Peer-side journal/recovery hooks (see Peer's protected helpers).
  [[nodiscard]] Journal journal_for(sim::PeerId id);
  void credit_queries_saved(std::size_t bits);

  // sim::NetworkObserver — the world owns the network's observer slot and
  // fans events out to the phase tracker, the trace, and added observers.
  void on_send(const sim::Message& msg, std::size_t unit_messages) override;
  void on_deliver(const sim::Message& msg) override;
  void on_drop(const sim::Message& msg) override;

  /// Peer::begin_phase lands here.
  void begin_phase(sim::PeerId peer, std::string name);

  friend class Peer;

  // Declared before everything it accounts for: containers whose
  // destructors credit pools through counting allocators must be torn
  // down while the registry is still alive.
  obs::MemRegistry mem_;
  obs::MemPool* peer_state_pool_ = nullptr;  ///< dr.peer.state (sampled)
  obs::MemPool* source_pool_ = nullptr;      ///< dr.source (sampled)
  std::uint64_t peer_state_recorded_ = 0;
  std::uint64_t source_recorded_ = 0;
  obs::MemTimeline mem_timeline_;

  Config cfg_;
  /// World-wide objects (shared<T>); declared before peers_, so they
  /// outlive the peers that cache pointers to them.
  struct SharedObject {
    std::string name;
    std::type_index type;
    std::shared_ptr<void> value;
  };
  std::vector<SharedObject> shared_;
  sim::Engine engine_;
  sim::Network net_;
  Source source_;
  std::unique_ptr<sim::Trace> trace_;
  std::vector<sim::NetworkObserver*> observers_;
  std::vector<QueryListener> query_listeners_;
  PhaseTracker phase_tracker_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<bool> faulty_;
  /// Nonfaulty peers not yet terminated; computed when run() starts.
  std::size_t running_nonfaulty_ = 0;
  std::vector<sim::Time> start_times_;
  std::map<sim::PeerId, std::uint64_t> sends_remaining_;  // crash_after_sends
  // Crash-recovery state (all empty/null on crash-stop worlds).
  std::unique_ptr<JournalStore> journal_store_;
  RestartFactory restart_factory_;
  RecoveryOptions recovery_options_;
  RecoveryStats recovery_stats_;
  std::vector<std::size_t> restart_counts_;
  std::map<sim::PeerId, sim::Time> auto_restart_delay_;
  std::map<sim::PeerId, std::pair<CrashPoint, std::size_t>> crash_point_kills_;
  Rng restart_rng_{0};
  bool ran_ = false;
};

}  // namespace asyncdr::dr
