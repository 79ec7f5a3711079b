// Complete asynchronous peer-to-peer network. The adversary owns message
// propagation delays through LatencyPolicy, and can crash peers at any time
// — including between the individual sends of a broadcast, modelling the
// paper's "crashed after sending some but not all messages" case.
//
// Bandwidth model: a message of up to B bits (the paper's message-size
// parameter) is one unit message. A payload of s bits consumes
// ceil(s / B) units; a directed link carries one unit per time unit, so
// units serialize per link. This is what gives transfers of n bits their
// n/B contribution to time complexity, matching the paper's accounting.
//
// Link state (see DESIGN.md, "Scaling the substrate"): each sender keeps
// ONE shared Link standing for every recipient it has only ever broadcast
// to, plus a flat row of k Links allocated on the sender's first
// divergence (a unicast, a partially-settling broadcast bucket, or a
// broadcast under the pre-send hook or a delivery stressor). From then on
// the row is authoritative for that sender. A broadcast-only sender costs
// O(1) link state; no sender ever costs more than one k-entry row. A
// broadcast delivers each distinct arrival time's recipients in ID order in
// one bucket event, and interns its payload body once through the
// PayloadBank instead of per recipient. A broadcast with one arrival time
// is one engine event; one with several is a wave that keeps only its next
// bucket in the engine heap (see DESIGN.md, "Broadcast waves").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/mem.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/payload_bank.hpp"
#include "sim/types.hpp"

namespace asyncdr::sim {

/// The scheduling adversary: assigns each message a propagation delay.
/// For complexity-faithful runs the returned value must lie in (0, 1] (the
/// asynchronous time normalization); lower-bound attack policies may exceed
/// 1, in which case the run's reported time complexity is not meaningful.
class LatencyPolicy {
 public:
  virtual ~LatencyPolicy();
  virtual Time propagation(const Message& msg) = 0;
};

/// Always the maximum delay 1 — the default worst-ish-case schedule.
class FixedLatency final : public LatencyPolicy {
 public:
  explicit FixedLatency(Time delay = 1.0);
  Time propagation(const Message& msg) override;

 private:
  Time delay_;
};

/// Anything that can receive delivered messages (peers, monitors).
class Receiver {
 public:
  virtual ~Receiver();
  virtual void deliver(const Message& msg) = 0;
};

/// Observation hooks for metrics/tracing. All methods optional. Pairing
/// invariant: every message id appears in exactly one on_send, followed by
/// at most one on_deliver or on_drop per scheduled copy — a send the
/// pre-send hook kills never reaches the network and emits nothing.
class NetworkObserver {
 public:
  virtual ~NetworkObserver();
  virtual void on_send(const Message& msg, std::size_t unit_messages);
  virtual void on_deliver(const Message& msg);
  virtual void on_drop(const Message& msg);
};

/// Beyond-model fault injection (the chaos layer's opt-in stressors).
/// The DR model's adversary already controls latency and crashes; this hook
/// additionally lets a run duplicate deliveries and hold messages past the
/// normalized latency bound — *outside* the paper's model, so runs with a
/// stressor installed measure graceful degradation, not in-model
/// correctness. Delivery copies beyond the first are free for the sender's
/// message-complexity accounting (they are the adversary's forgeries, not
/// the peer's sends).
class DeliveryStressor {
 public:
  virtual ~DeliveryStressor();
  /// How many times to deliver `msg` (>= 1; 1 = normal delivery).
  virtual std::size_t copies(const Message& msg) = 0;
  /// Extra delay (>= 0) added on top of the scheduled arrival of copy
  /// `copy` (0-based; copy 0 is the primary delivery).
  virtual Time extra_delay(const Message& msg, std::size_t copy) = 0;
};

/// The clique network over k peers.
class Network {
 public:
  /// message_size_bits is the paper's B; payloads larger than B are
  /// accounted as multiple unit messages.
  Network(Engine& engine, std::size_t k, std::size_t message_size_bits);

  /// Teardown audit: aborts (cannot throw from a destructor) if the payload
  /// bank disagrees with the in-flight count, or holds bodies with no
  /// in-flight copy left to explain them. A run cut off mid-flight (stall
  /// cutoff, event budget) legitimately tears down with live entries — but
  /// then every one of them is explained by an in-flight copy.
  ~Network();

  [[nodiscard]] std::size_t size() const { return k_; }
  [[nodiscard]] std::size_t message_size_bits() const { return message_size_bits_; }
  Engine& engine() { return engine_; }

  /// Registers the receiver for a peer ID. Must be called for every peer
  /// before any traffic flows to it.
  void attach(PeerId id, Receiver* receiver);

  /// Installs the scheduling adversary. Defaults to FixedLatency(1).
  void set_latency_policy(std::unique_ptr<LatencyPolicy> policy);

  /// Metrics/tracing observer (not owned). May be null.
  void set_observer(NetworkObserver* observer);

  /// Installs a beyond-model delivery stressor (duplication, burst holds).
  /// Default: none. Installing one takes the run outside the paper's model;
  /// see DeliveryStressor.
  void set_delivery_stressor(std::unique_ptr<DeliveryStressor> stressor);

  /// Adversary hook invoked before each send is processed; it may call
  /// crash(from) to model a peer dying mid-broadcast.
  using PreSendHook = std::function<void(const Message& about_to_send)>;
  void set_pre_send_hook(PreSendHook hook);

  /// Sends payload from -> to. Dropped if the sender is crashed (after the
  /// pre-send hook has run). Delivery is dropped if the receiver has
  /// crashed by arrival time.
  void send(PeerId from, PeerId to, PayloadPtr payload);

  /// Sends payload from every peer except `from` itself, in increasing
  /// recipient-ID order (deterministic, so a mid-broadcast crash cuts a
  /// well-defined prefix). Observationally identical to
  /// `for to != from: if crashed(from) stop; send(from, to, payload)`,
  /// except that recipients sharing an arrival time are delivered by one
  /// bucketed event.
  void broadcast(PeerId from, PayloadPtr payload);

  /// Marks a peer crashed: it sends and receives nothing from now on.
  void crash(PeerId id);
  /// Un-crashes a peer (crash-*recovery* worlds revive restarted peers).
  /// The caller attaches the new incarnation's receiver. Revival starts a
  /// fresh incarnation on clean channels:
  ///  * every copy addressed to the id and sent strictly before the revival
  ///    instant is dropped on arrival (whether the peer was up or down when
  ///    it was sent — the dead incarnation's inbox does not carry over);
  ///  * the id's OUTGOING bandwidth reservations are cleared, so the fresh
  ///    incarnation's first sends do not queue behind the dead one's ghost
  ///    traffic (in-flight copies it sent before crashing still settle and
  ///    still occupy the receiving side normally).
  void revive(PeerId id);
  [[nodiscard]] bool is_crashed(PeerId id) const;
  [[nodiscard]] std::size_t crashed_count() const;

  /// ceil(size_bits / B), at least 1 — unit messages consumed by a payload.
  [[nodiscard]] std::size_t unit_messages(const Payload& payload) const;

  /// Unit messages sent by `id` so far (crashed-at-send messages excluded).
  [[nodiscard]] std::uint64_t sent_units(PeerId id) const;
  /// Raw payload-level sends by `id` (each send() call that went through).
  [[nodiscard]] std::uint64_t sent_payloads(PeerId id) const;

  // ---- Stall diagnostics (always on; used by dr::World's stall report) ----

  /// Messages scheduled but not yet delivered/dropped on the directed link
  /// from -> to. 64-bit: beyond-model replication stressors multiply copies
  /// per link far past what a 32-bit counter assumes.
  [[nodiscard]] std::uint64_t in_flight(PeerId from, PeerId to) const;
  /// Sum of in_flight over all links. O(1): maintained, not recomputed.
  [[nodiscard]] std::uint64_t total_in_flight() const { return total_in_flight_; }
  /// Engine events this network owns and has not fired yet: one per
  /// scheduled unicast copy, one per bucket event, and one per reserved
  /// wave bucket. O(1). Equal to Engine::pending() exactly when every
  /// pending event is a delivery (dr::World's run-completion test).
  [[nodiscard]] std::size_t pending_events() const { return pending_events_; }
  /// Directed links that have ever carried traffic. A broadcast-only
  /// sender's whole fan-out is counted through its shared Link.
  [[nodiscard]] std::size_t active_links() const;
  /// One busy directed link (messages still in flight).
  struct BusyLink {
    PeerId from = kNoPeer;
    PeerId to = kNoPeer;
    std::uint64_t in_flight = 0;
  };
  /// All busy links in (from, to) order.
  [[nodiscard]] std::vector<BusyLink> busy_links() const;
  /// Virtual time of the last accepted send by `id`; negative if none.
  [[nodiscard]] Time last_send_at(PeerId id) const;
  /// Virtual time of the last delivery to `id`; negative if none.
  [[nodiscard]] Time last_delivery_at(PeerId id) const;

  /// State of one directed link (or, as a sender's shared Link, of every
  /// link it has only broadcast on).
  struct Link {
    Time next_free = 0;  ///< when the link can start its next unit
    std::uint64_t in_flight = 0;
    /// Ever carried traffic. Kept explicitly (not derived from next_free)
    /// because revive() clears the sender's reservations.
    bool used = false;
  };

  /// The payload bank (interning + copy accounting). Read-only: all
  /// charging goes through send/broadcast.
  [[nodiscard]] const PayloadBank& payload_bank() const { return bank_; }

  /// Wires the byte-accounting pools (all nullable):
  ///  * links    — per-sender shared Links plus the diverged rows
  ///  * fanout   — in-flight multi-span broadcast-bucket buffers and
  ///               broadcast waves
  ///  * payloads — distinct in-flight payload bodies (PayloadBank: interned
  ///               by content, refcounted once per body regardless of
  ///               fan-out degree)
  void set_mem_pools(obs::MemPool* links, obs::MemPool* fanout,
                     obs::MemPool* payloads);

 private:
  /// A sender's link state. While `row` is empty, `shared` stands for
  /// every recipient link (to != from): the sender has only broadcast on
  /// the shared path, so all those links share one reservation history. The
  /// first divergence allocates `row` (k entries, seeded from `shared`, with
  /// a fresh self link); from then on the row alone is authoritative.
  struct SenderLinks {
    Link shared;
    std::vector<Link> row;
  };

  /// `count` consecutive scheduled copies of one broadcast bucket:
  /// recipients to_first..to_first+count-1 carrying message ids
  /// id_first..id_first+count-1. Broadcasts assign ids in recipient order,
  /// so a k-wide fault-free bucket compresses into at most two spans
  /// (before/after the sender's own id). Kept at 24 bytes so a single-span
  /// delivery closure (this, from, payload, sent_at, span) fits
  /// InlineAction's 64-byte inline buffer.
  struct FanoutSpan {
    PeerId to_first = kNoPeer;
    std::uint64_t id_first = 0;
    std::uint64_t count = 0;
  };
  using SpanList = std::vector<FanoutSpan>;

  /// One scheduled copy of a broadcast.
  struct Arrival {
    Time at;
    PeerId to;
    std::uint64_t id;
  };

  /// A broadcast with several distinct arrival times, in flight. Its copies
  /// are sorted by (at, id), so buckets are runs of equal `at`. Only the
  /// next bucket sits in the engine heap, under the seq the wave reserved
  /// for it at send time; firing a bucket re-arms the wave at the next.
  struct Wave {
    PeerId from;
    PayloadPtr payload;
    Time sent_at;
    std::uint64_t next_seq;  ///< reserved seq of the next bucket
    std::size_t next;        ///< first arrival of the next bucket
    std::vector<Arrival> arrivals;
  };

  /// `from`'s row, allocated (and charged to the links pool) on first use.
  std::vector<Link>& diverge(PeerId from);

  /// Runs the pre-send hook; false iff the hook crashed the sender — the
  /// send then never happened: no message id consumed, no observer event.
  bool pass_pre_send(const Message& msg);
  /// Send-side accounting + on_send (the message is now committed).
  void account_send(const Message& msg, std::size_t units);
  /// Per-link path: reserves msg's link in the sender's row, then charges
  /// one in-flight copy per stressor copy and calls emit(arrival) for each.
  template <typename Emit>
  void reserve_copies(const Message& msg, std::size_t units, Emit&& emit);
  /// Schedules a broadcast whose copies all arrive at `at` as one bucket
  /// event; takes `spans` (left empty).
  void schedule_bucket(PeerId from, const PayloadPtr& payload, Time sent_at,
                       Time at, SpanList& spans);
  /// Launches a broadcast over `arrivals` (sorted, several distinct times)
  /// as a wave, charged to the fanout pool until its last bucket fires.
  void launch_wave(PeerId from, const PayloadPtr& payload, Time sent_at,
                   std::vector<Arrival>&& arrivals);
  /// Pushes the wave's next bucket under its reserved seq.
  void arm_wave(std::unique_ptr<Wave> wave);
  /// Wave bucket event: re-arms the wave at its following bucket (or
  /// retires it), then settles and delivers this bucket.
  void fire_wave(std::unique_ptr<Wave> wave);
  /// Unicast delivery event: settles the link + bank, then delivers.
  void deliver_or_drop(const Message& msg);
  /// Bucket delivery: settles the `copies` members' link state (the shared
  /// Link at once when the bucket covers all of a row-less sender's links),
  /// then delivers them in recipient-ID order. `members(fn)` calls
  /// fn(to, id) once per member, in that order.
  template <typename Members>
  void deliver_bucket(PeerId from, const PayloadPtr& payload, Time sent_at,
                      std::uint64_t copies, Members&& members);
  /// Common delivery tail: revive-gate + crash check, counters, observer,
  /// receiver handoff.
  void finish_delivery(const Message& msg);

  /// Reconciles the links pool with the shells plus the allocated rows.
  void settle_links();

  Engine& engine_;
  std::size_t k_;
  std::size_t message_size_bits_;
  obs::MemPool* links_pool_ = nullptr;    ///< sim.network.links
  obs::MemPool* fanout_pool_ = nullptr;   ///< sim.network.fanout
  std::uint64_t links_recorded_ = 0;
  std::size_t rows_ = 0;  ///< senders whose row is allocated
  /// Interned in-flight payload bodies + per-copy refcounts; charges the
  /// sim.msg.payloads pool.
  PayloadBank bank_;
  std::vector<Receiver*> receivers_;
  std::vector<bool> crashed_;
  /// Per peer: time of its latest revive(); negative if never revived.
  /// Copies sent strictly before this instant are dropped on arrival.
  std::vector<Time> revived_at_;
  std::vector<SenderLinks> links_;
  std::vector<std::uint64_t> sent_units_;
  std::vector<std::uint64_t> sent_payloads_;
  std::vector<Time> last_send_at_;
  std::vector<Time> last_delivery_at_;
  std::uint64_t total_in_flight_ = 0;
  std::size_t pending_events_ = 0;  ///< see pending_events()
  std::uint64_t next_message_id_ = 0;
  std::unique_ptr<LatencyPolicy> latency_;
  NetworkObserver* observer_ = nullptr;
  std::unique_ptr<DeliveryStressor> stressor_;
  PreSendHook pre_send_hook_;
};

}  // namespace asyncdr::sim
