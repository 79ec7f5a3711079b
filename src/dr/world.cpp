#include "dr/world.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/table.hpp"

namespace asyncdr::dr {

sim::Time RecoveryOptions::backoff(std::size_t restarts) const {
  const double raw =
      base_delay * std::pow(backoff_factor, static_cast<double>(restarts));
  return std::min(max_delay, raw);
}

std::string StallReport::to_string() const {
  std::ostringstream os;
  os << "StallReport{" << (budget_exhausted ? "event budget exhausted"
                                            : "quiescent but incomplete")
     << ", pending_events=" << pending_events
     << ", crashed_peers=" << crashed_peers << "}\n";
  if (stuck_peers.empty()) {
    os << "  (no stuck peers: every nonfaulty peer terminated, but the budget "
          "ran out while a scheduled event or a revivable peer could still "
          "change the outcome)\n";
  }
  for (const PeerState& p : stuck_peers) {
    os << "  stuck peer " << p.id << ": ";
    if (p.crashed) os << "CRASHED, ";
    os << "last_send=";
    if (p.last_send < 0) os << "never"; else os << p.last_send;
    os << " last_delivery=";
    if (p.last_delivery < 0) os << "never"; else os << p.last_delivery;
    os << " bits_queried=" << p.bits_queried << " status=\"" << p.status
       << '"';
    if (!p.last_event.empty()) os << " last_event=" << p.last_event;
    os << '\n';
  }
  constexpr std::size_t kMaxLinkLines = 16;
  for (std::size_t i = 0; i < busy_links.size() && i < kMaxLinkLines; ++i) {
    const LinkState& l = busy_links[i];
    os << "  link p" << l.from << " -> p" << l.to << ": " << l.in_flight
       << " in flight\n";
  }
  if (busy_links.size() > kMaxLinkLines) {
    os << "  ... (" << (busy_links.size() - kMaxLinkLines)
       << " more busy links)\n";
  }
  if (trace_cutoff >= 0) {
    os << "  trace visibility ended at t=" << trace_cutoff
       << " (the bounded trace overflowed; later events were not recorded)\n";
  }
  return os.str();
}

std::string RunReport::to_string() const {
  std::ostringstream os;
  os << "RunReport{ok=" << (ok() ? "yes" : "no")
     << " terminated=" << all_terminated << " correct=" << all_correct
     << " budget_exhausted=" << budget_exhausted << " Q=" << query_complexity
     << " T=" << time_complexity << " M=" << message_complexity
     << " events=" << events;
  if (!incorrect_peers.empty()) {
    os << " incorrect=[";
    for (auto p : incorrect_peers) os << p << ' ';
    os << ']';
  }
  if (!unterminated_peers.empty()) {
    os << " unterminated=[";
    for (auto p : unterminated_peers) os << p << ' ';
    os << ']';
  }
  if (recovery.restarts > 0) {
    os << " restarts=" << recovery.restarts
       << " replays=" << recovery.journal_replays
       << " bits_recovered=" << recovery.bits_recovered
       << " queries_saved=" << recovery.queries_saved
       << " cold_fallbacks=" << recovery.cold_fallbacks
       << " torn_tails=" << recovery.torn_tails;
  }
  os << '}';
  return os.str();
}

std::string RunReport::phase_table() const {
  Table table({"phase", "peers", "Q (bits)", "M (units)", "payloads",
               "T (max span)"});
  for (const PhaseBreakdown& p : phases) {
    table.add(p.name, p.peers, p.bits_queried, p.unit_messages,
              p.payload_messages, p.max_span);
  }
  return table.render();
}

std::string RunReport::peer_phase_table() const {
  Table table({"peer", "phase", "Q (bits)", "M (units)", "payloads", "begin",
               "end"});
  for (const PhaseSpan& s : phase_spans) {
    table.add(s.peer, s.name, s.bits_queried, s.unit_messages,
              s.payload_messages, s.begin, s.end);
  }
  return table.render();
}

World::World(Config cfg, BitVec input)
    : cfg_(cfg),
      net_(engine_, cfg.k, cfg.message_bits),
      source_(std::move(input), cfg.k),
      peers_(cfg.k),
      faulty_(cfg.k, false),
      start_times_(cfg.k, 0) {
  cfg_.validate();
  ASYNCDR_EXPECTS_MSG(source_.n() == cfg_.n, "input length must equal cfg.n");
  // Byte accounting is always on. The full pool set is created up front —
  // not lazily — so every run's snapshot and timeline has the same
  // columns regardless of which subsystems saw traffic.
  peer_state_pool_ = &mem_.pool("dr.peer.state");
  source_pool_ = &mem_.pool("dr.source");
  static_cast<void>(mem_.pool("dr.journal"));
  engine_.set_mem_pool(&mem_.pool("sim.engine.heap"));
  net_.set_mem_pools(&mem_.pool("sim.network.links"),
                     &mem_.pool("sim.network.fanout"),
                     &mem_.pool("sim.msg.payloads"));
  static_cast<void>(mem_.pool("obs.trace"));
  for (const obs::MemPoolStats& p : mem_.snapshot()) {
    mem_timeline_.pools.push_back(p.name);
  }
  // The world owns the network's single observer slot and the source's
  // single query-observer slot; it fans events out to the phase tracker,
  // the trace (if enabled), and any observers/listeners added later.
  net_.set_observer(this);
  source_.set_query_observer([this](sim::PeerId peer, std::size_t bits) {
    phase_tracker_.on_query(peer, bits, engine_.now());
    if (trace_) trace_->record_query(engine_.now(), peer, bits);
    for (const QueryListener& listener : query_listeners_) listener(peer, bits);
  });
}

void World::set_peer(sim::PeerId id, std::unique_ptr<Peer> peer) {
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(peer != nullptr);
  peer->bind(this, id, Rng(cfg_.seed).split(id));
  net_.attach(id, peer.get());
  peers_[id] = std::move(peer);
}

Peer& World::peer(sim::PeerId id) {
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(peers_[id] != nullptr);
  return *peers_[id];
}

void World::mark_faulty(sim::PeerId id) {
  ASYNCDR_EXPECTS(id < cfg_.k);
  set_faulty(id, true);
  ASYNCDR_EXPECTS_MSG(faulty_count() <= cfg_.max_faulty(),
                      "adversary exceeded the fault budget t = beta*k");
}

void World::set_faulty(sim::PeerId id, bool faulty) {
  if (faulty_[id] == faulty) return;
  faulty_[id] = faulty;
  // Before run() the count is not kept; run() computes it from scratch.
  if (!ran_ || peers_[id]->terminated()) return;
  if (faulty) {
    ASYNCDR_INVARIANT(running_nonfaulty_ > 0);
    --running_nonfaulty_;
  } else {
    ++running_nonfaulty_;
  }
}

bool World::is_faulty(sim::PeerId id) const {
  ASYNCDR_EXPECTS(id < cfg_.k);
  return faulty_[id];
}

std::size_t World::faulty_count() const {
  return static_cast<std::size_t>(
      std::count(faulty_.begin(), faulty_.end(), true));
}

void World::schedule_crash_at(sim::PeerId id, sim::Time t) {
  mark_faulty(id);
  // crash_now (not a bare net_.crash) so a *revived* peer that was given a
  // second scheduled crash is re-marked faulty when the event fires, and so
  // the auto-restart policy sees every kill.
  engine_.schedule_at(t, [this, id] { crash_now(id); });
}

void World::crash_now(sim::PeerId id) {
  if (net_.is_crashed(id)) return;
  set_faulty(id, true);  // budget was charged when the crash was armed
  net_.crash(id);
  if (trace_) trace_->record_crash(engine_.now(), id);
  const auto it = auto_restart_delay_.find(id);
  if (it != auto_restart_delay_.end()) restart_after_delay(id, it->second);
}

void World::crash_after_sends(sim::PeerId id, std::uint64_t count) {
  mark_faulty(id);
  sends_remaining_[id] = count;
  install_send_hook_if_needed();
}

void World::set_start_time(sim::PeerId id, sim::Time t) {
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(t >= 0);
  start_times_[id] = t;
}

void World::install_send_hook_if_needed() {
  net_.set_pre_send_hook([this](const sim::Message& msg) {
    auto it = sends_remaining_.find(msg.from);
    if (it == sends_remaining_.end()) return;
    if (it->second == 0) {
      sends_remaining_.erase(it);
      crash_now(msg.from);
    } else {
      --it->second;
    }
  });
}

void World::enable_recovery(RestartFactory factory, RecoveryOptions options) {
  ASYNCDR_EXPECTS_MSG(!ran_, "enable_recovery must precede run()");
  ASYNCDR_EXPECTS(factory != nullptr);
  ASYNCDR_EXPECTS(options.backoff_factor >= 1.0);
  ASYNCDR_EXPECTS(options.base_delay >= 0 && options.max_delay >= 0);
  restart_factory_ = std::move(factory);
  recovery_options_ = options;
  journal_store_ = std::make_unique<JournalStore>(cfg_.k);
  journal_store_->set_mem_pool(&mem_.pool("dr.journal"));
  restart_counts_.assign(cfg_.k, 0);
  restart_rng_ = adversary_rng(0x7e57a7ull);
  journal_store_->set_crash_point_hook(
      [this](sim::PeerId id, CrashPoint point) {
        const auto it = crash_point_kills_.find(id);
        if (it == crash_point_kills_.end() || it->second.first != point) {
          return false;
        }
        if (it->second.second > 1) {
          --it->second.second;
          return false;
        }
        crash_point_kills_.erase(it);
        crash_now(id);
        return true;
      });
}

JournalStore& World::journal_store() {
  ASYNCDR_EXPECTS_MSG(journal_store_ != nullptr, "recovery is not enabled");
  return *journal_store_;
}

Journal World::journal_for(sim::PeerId id) {
  return Journal(journal_store(), id);
}

void World::credit_queries_saved(std::size_t bits) {
  recovery_stats_.queries_saved += bits;
}

void World::schedule_restart_at(sim::PeerId id, sim::Time t) {
  ASYNCDR_EXPECTS_MSG(journal_store_ != nullptr,
                      "restarts need enable_recovery");
  ASYNCDR_EXPECTS(id < cfg_.k);
  engine_.schedule_at(t, [this, id] { do_restart(id); });
}

void World::restart_after_delay(sim::PeerId id, sim::Time delay) {
  ASYNCDR_EXPECTS_MSG(journal_store_ != nullptr,
                      "restarts need enable_recovery");
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(delay >= 0);
  const sim::Time backoff = recovery_options_.backoff(restart_counts_[id]);
  const sim::Time jitter =
      recovery_options_.jitter > 0
          ? restart_rng_.uniform(0.0, recovery_options_.jitter)
          : 0.0;
  engine_.schedule_in(delay + backoff + jitter, [this, id] { do_restart(id); });
}

void World::restart_on_crash(sim::PeerId id, sim::Time delay) {
  ASYNCDR_EXPECTS_MSG(journal_store_ != nullptr,
                      "restarts need enable_recovery");
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(delay >= 0);
  auto_restart_delay_[id] = delay;
}

void World::kill_at_crash_point(sim::PeerId id, CrashPoint point,
                                std::size_t nth) {
  ASYNCDR_EXPECTS_MSG(journal_store_ != nullptr,
                      "crash-point kills need enable_recovery");
  ASYNCDR_EXPECTS(id < cfg_.k);
  ASYNCDR_EXPECTS(nth >= 1);
  crash_point_kills_[id] = {point, nth};
}

std::size_t World::restart_count(sim::PeerId id) const {
  ASYNCDR_EXPECTS(id < cfg_.k);
  return restart_counts_.empty() ? 0 : restart_counts_[id];
}

void World::do_restart(sim::PeerId id) {
  if (!net_.is_crashed(id)) return;  // never crashed, or already revived
  if (restart_counts_[id] >= recovery_options_.max_restarts) return;
  ++restart_counts_[id];
  ++recovery_stats_.restarts;

  JournalReplay replay =
      recovery_options_.cold_restart
          ? Journal::replay({}, cfg_.n)
          : Journal::replay(journal_store_->log(id), cfg_.n);
  if (replay.torn) ++recovery_stats_.torn_tails;
  if (replay.records == 0) {
    ++recovery_stats_.cold_fallbacks;
  } else {
    ++recovery_stats_.journal_replays;
    recovery_stats_.bits_recovered += replay.intervals.count();
  }

  // Crash-stop semantics within an incarnation: the old peer's memory is
  // gone; only the journal carried state across. Build a fresh peer on a
  // per-incarnation RNG stream and splice it into the network.
  std::unique_ptr<Peer> fresh = restart_factory_(cfg_, id);
  ASYNCDR_EXPECTS_MSG(fresh != nullptr, "restart factory returned null");
  fresh->bind(this, id,
              Rng(cfg_.seed).split(id).split(0xbea7 + restart_counts_[id]));
  net_.revive(id);
  net_.attach(id, fresh.get());
  peers_[id] = std::move(fresh);
  // The revived peer re-enters the correctness predicate: it must download
  // the full input (or the run is wrong), and its queries count again.
  set_faulty(id, false);

  if (trace_) {
    trace_->record_note(engine_.now(), id,
                        "restart #" + std::to_string(restart_counts_[id]) +
                            " recovered=" +
                            std::to_string(replay.intervals.count()) +
                            (replay.torn ? " torn-tail" : ""));
    // A restart is a causal root, exactly like the first start.
    trace_->record_start(engine_.now(), id);
  }
  RecoveryState state{std::move(replay), restart_counts_[id]};
  peers_[id]->on_restart(state);
}

sim::Trace& World::enable_trace(std::size_t capacity) {
  ASYNCDR_EXPECTS_MSG(!ran_, "enable_trace must precede run()");
  if (!trace_) {
    trace_ = std::make_unique<sim::Trace>(engine_, capacity);
    trace_->set_mem_pool(&mem_.pool("obs.trace"));
  }
  return *trace_;
}

void World::add_observer(sim::NetworkObserver* observer) {
  ASYNCDR_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

void World::add_query_listener(QueryListener listener) {
  ASYNCDR_EXPECTS(listener != nullptr);
  query_listeners_.push_back(std::move(listener));
}

void World::on_send(const sim::Message& msg, std::size_t unit_messages) {
  phase_tracker_.on_send(msg.from, unit_messages, engine_.now());
  if (trace_) trace_->on_send(msg, unit_messages);
  for (sim::NetworkObserver* o : observers_) o->on_send(msg, unit_messages);
}

void World::on_deliver(const sim::Message& msg) {
  if (trace_) trace_->on_deliver(msg);
  for (sim::NetworkObserver* o : observers_) o->on_deliver(msg);
}

void World::on_drop(const sim::Message& msg) {
  if (trace_) trace_->on_drop(msg);
  for (sim::NetworkObserver* o : observers_) o->on_drop(msg);
}

void World::begin_phase(sim::PeerId peer, std::string name) {
  if (trace_) trace_->record_note(engine_.now(), peer, "phase: " + name);
  phase_tracker_.begin(peer, std::move(name), engine_.now());
}

bool World::revival_armed() const {
  for (const auto& [id, delay] : auto_restart_delay_) {
    if (net_.is_crashed(id) || peers_[id]->terminated()) continue;
    if (sends_remaining_.contains(id) || crash_point_kills_.contains(id)) {
      return true;
    }
  }
  return false;
}

bool World::outcome_fixed() const {
  // (a) every nonfaulty peer has terminated; (b) nothing but deliveries is
  // pending — no start, crash, restart, or caller event (journal
  // corruption, source mutation) that could still change the report; (c)
  // no delivery can crash a peer into a scheduled revival.
  return running_nonfaulty_ == 0 &&
         net_.pending_events() == engine_.pending() && !revival_armed();
}

RunReport World::run(std::size_t max_events) {
  ASYNCDR_EXPECTS_MSG(!ran_, "World::run may only be called once");
  ran_ = true;
  running_nonfaulty_ = 0;
  for (sim::PeerId id = 0; id < cfg_.k; ++id) {
    ASYNCDR_EXPECTS_MSG(peers_[id] != nullptr, "peer not set: " + std::to_string(id));
    if (!faulty_[id]) ++running_nonfaulty_;
    // Dereference peers_[id] at fire time, not here: a recovery world may
    // have replaced the peer with a fresh incarnation by then.
    engine_.schedule_at(start_times_[id], [this, id] {
      Peer* p = peers_[id].get();
      // A late starter may already be crashed — or even terminated, if a
      // terminating push reached it before its own start time. A revived
      // incarnation already ran on_restart; don't start it twice.
      if (!net_.is_crashed(id) && !p->terminated() && restart_count(id) == 0) {
        // The start is a causal root: everything the peer does before its
        // first delivery chains back to this event.
        if (trace_) trace_->record_start(engine_.now(), id);
        p->on_start();
      }
    });
  }

  // Drive the engine step by step instead of engine_.run(): the memory
  // timeline samples on an event-count epoch, and sampling from out here
  // injects no engine events and writes nothing into the trace — both
  // would break the A/B byte-identical-trace contract. The loop also stops
  // at the first event after which the outcome is fixed; the budget counts
  // as exhausted only if it ran out first.
  sim::Engine::RunResult run_result;
  {
    bool fixed = false;
    constexpr std::uint64_t kMaxSamples = 256;
    std::uint64_t epoch = 1024;
    std::uint64_t next_sample = epoch;
    sample_mem(0);
    while (run_result.events_processed < max_events && engine_.step()) {
      ++run_result.events_processed;
      if (run_result.events_processed >= next_sample) {
        sample_mem(run_result.events_processed);
        if (mem_timeline_.samples.size() >= kMaxSamples) {
          // Deterministic thinning: keep every other sample and double
          // the epoch, so arbitrarily long runs cap at ~kMaxSamples rows
          // while the kept rows stay a pure function of the event count.
          std::vector<obs::MemTimeline::Sample> kept;
          kept.reserve(mem_timeline_.samples.size() / 2 + 1);
          for (std::size_t i = 0; i < mem_timeline_.samples.size(); i += 2) {
            kept.push_back(std::move(mem_timeline_.samples[i]));
          }
          mem_timeline_.samples.swap(kept);
          epoch *= 2;
        }
        next_sample = mem_timeline_.samples.back().events + epoch;
      }
      if (outcome_fixed()) {
        fixed = true;
        break;
      }
    }
    run_result.budget_exhausted = !fixed &&
                                  run_result.events_processed >= max_events &&
                                  !engine_.idle();
    sample_mem(run_result.events_processed);
  }

  RunReport report;
  report.events = run_result.events_processed;
  report.budget_exhausted = run_result.budget_exhausted;
  report.recovery = recovery_stats_;
  report.all_terminated = true;
  report.all_correct = true;
  report.per_peer_queries.resize(cfg_.k, 0);
  report.outputs.resize(cfg_.k);

  for (sim::PeerId id = 0; id < cfg_.k; ++id) {
    report.per_peer_queries[id] =
        static_cast<std::size_t>(source_.bits_queried(id));
    if (peers_[id]->terminated()) report.outputs[id] = peers_[id]->output();
    if (faulty_[id]) continue;
    const Peer& p = *peers_[id];
    if (!p.terminated()) {
      report.all_terminated = false;
      report.unterminated_peers.push_back(id);
    } else if (p.output() != source_.data()) {
      report.all_correct = false;
      report.incorrect_peers.push_back(id);
    }
    report.query_complexity = std::max(
        report.query_complexity, report.per_peer_queries[id]);
    report.total_queries += source_.bits_queried(id);
    report.time_complexity =
        std::max(report.time_complexity,
                 p.terminated() ? p.termination_time() : engine_.now());
    report.message_complexity += net_.sent_units(id);
    report.payload_messages += net_.sent_payloads(id);
  }
  phase_tracker_.close_all(engine_.now());
  report.phase_spans = phase_tracker_.spans();
  // Aggregate the nonfaulty peers' spans into the per-phase breakdown, in
  // first-entry order. Per-peer time in a phase sums that peer's spans of
  // the same name; the breakdown's T is the max over peers.
  {
    std::map<std::pair<std::string, sim::PeerId>, sim::Time> peer_time;
    for (const PhaseSpan& span : report.phase_spans) {
      if (faulty_[span.peer]) continue;
      auto it = std::find_if(report.phases.begin(), report.phases.end(),
                             [&](const RunReport::PhaseBreakdown& p) {
                               return p.name == span.name;
                             });
      if (it == report.phases.end()) {
        report.phases.push_back(RunReport::PhaseBreakdown{span.name});
        it = report.phases.end() - 1;
      }
      it->bits_queried += span.bits_queried;
      it->unit_messages += span.unit_messages;
      it->payload_messages += span.payload_messages;
      auto [t, fresh] = peer_time.try_emplace({span.name, span.peer}, 0);
      if (fresh) ++it->peers;
      t->second += span.span();
      it->max_span = std::max(it->max_span, t->second);
    }
  }
  if (report.budget_exhausted || !report.all_terminated) {
    report.stall = build_stall_report(report.budget_exhausted).to_string();
  }
  report.mem_pools = mem_.snapshot();
  report.mem_total_peak = mem_.total_peak();
  return report;
}

void World::sample_mem(std::uint64_t events) {
  // The sampled pools: per-peer and source state are settled here — on
  // the epoch, not on every mutation — so their peaks are epoch-granular
  // by design (see DESIGN.md, "Memory observability").
  // dr.peer.state = what the live peers report, working sets included.
  std::uint64_t peer_bytes = 0;
  for (const auto& p : peers_) {
    if (p != nullptr) peer_bytes += p->memory_bytes();
  }
  obs::settle_component(peer_state_pool_, peer_state_recorded_, peer_bytes);
  obs::settle_component(source_pool_, source_recorded_,
                        static_cast<std::uint64_t>(source_.memory_bytes()));
  obs::MemTimeline::Sample sample;
  sample.events = events;
  sample.at = static_cast<double>(engine_.now());
  sample.bytes.reserve(mem_timeline_.pools.size());
  for (const std::string& name : mem_timeline_.pools) {
    sample.bytes.push_back(mem_.pool(name).current());
  }
  mem_timeline_.samples.push_back(std::move(sample));
}

StallReport World::build_stall_report(bool budget_exhausted) const {
  StallReport stall;
  stall.budget_exhausted = budget_exhausted;
  stall.pending_events = engine_.pending();
  stall.crashed_peers = net_.crashed_count();
  for (sim::PeerId id = 0; id < cfg_.k; ++id) {
    if (faulty_[id] || peers_[id] == nullptr || peers_[id]->terminated()) {
      continue;
    }
    StallReport::PeerState p;
    p.id = id;
    p.crashed = net_.is_crashed(id);
    p.last_send = net_.last_send_at(id);
    p.last_delivery = net_.last_delivery_at(id);
    p.bits_queried = source_.bits_queried(id);
    p.status = peers_[id]->status();
    if (trace_) {
      if (const sim::TraceEvent* ev = trace_->last_event_involving(id)) {
        p.last_event = ev->to_string();
      }
    }
    stall.stuck_peers.push_back(std::move(p));
  }
  // The network enumerates busy links itself, skipping idle senders.
  for (const sim::Network::BusyLink& l : net_.busy_links()) {
    stall.busy_links.push_back({l.from, l.to, l.in_flight});
  }
  if (trace_ && trace_->dropped_events() > 0) {
    stall.trace_cutoff = trace_->first_dropped_at();
  }
  return stall;
}

Rng World::adversary_rng(std::uint64_t tag) const {
  return Rng(cfg_.seed).split(0x4adull * (tag + 1) + cfg_.k);
}

}  // namespace asyncdr::dr
