#include "sim/network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace asyncdr::sim {

LatencyPolicy::~LatencyPolicy() = default;
Receiver::~Receiver() = default;
NetworkObserver::~NetworkObserver() = default;
DeliveryStressor::~DeliveryStressor() = default;
void NetworkObserver::on_send(const Message&, std::size_t) {}
void NetworkObserver::on_deliver(const Message&) {}
void NetworkObserver::on_drop(const Message&) {}

FixedLatency::FixedLatency(Time delay) : delay_(delay) {
  ASYNCDR_EXPECTS(delay > 0 && delay <= 1.0);
}

Time FixedLatency::propagation(const Message&) { return delay_; }

Network::Network(Engine& engine, std::size_t k, std::size_t message_size_bits)
    : engine_(engine),
      k_(k),
      message_size_bits_(message_size_bits),
      receivers_(k, nullptr),
      crashed_(k, false),
      revived_at_(k, -1.0),
      links_(k),
      sent_units_(k, 0),
      sent_payloads_(k, 0),
      last_send_at_(k, -1.0),
      last_delivery_at_(k, -1.0),
      latency_(std::make_unique<FixedLatency>(1.0)) {
  ASYNCDR_EXPECTS(k >= 2);
  ASYNCDR_EXPECTS(message_size_bits >= 1);
}

Network::~Network() {
  // Teardown audit (cannot throw from a destructor): every in-flight copy
  // must hold exactly one bank reference, and a bank entry with no copy
  // left in flight is an unexplained leak. A run cut off mid-flight (stall
  // cutoff, event budget, copies addressed to permanently-crashed peers)
  // legitimately dies with live entries — but refs == in-flight still
  // holds, so the audit passes exactly when every residual is explained.
  if (bank_.live_refs() != total_in_flight_ ||
      (total_in_flight_ == 0 && bank_.live_payloads() != 0)) {
    // asyncdr-lint: allow(DR004) abort-path diagnostics only: this prints
    //   and dies; no simulation output can depend on it.
    std::fprintf(
        stderr,
        "asyncdr: Network teardown audit failed: payload bank holds %llu "
        "refs over %llu bodies but %llu copies are in flight\n",
        static_cast<unsigned long long>(bank_.live_refs()),
        static_cast<unsigned long long>(bank_.live_payloads()),
        static_cast<unsigned long long>(total_in_flight_));
    std::abort();
  }
}

void Network::set_mem_pools(obs::MemPool* links, obs::MemPool* fanout,
                            obs::MemPool* payloads) {
  links_pool_ = links;
  fanout_pool_ = fanout;
  bank_.set_pool(payloads);
  // Restart accounting from zero so the full current footprint is charged
  // to the freshly wired pool (earlier settles ran poolless).
  links_recorded_ = 0;
  settle_links();
}

void Network::settle_links() {
  const std::uint64_t modeled =
      obs::modeled_alloc_bytes(links_.capacity() * sizeof(SenderLinks)) +
      rows_ * obs::modeled_alloc_bytes(k_ * sizeof(Link));
  obs::settle_component(links_pool_, links_recorded_, modeled);
}

std::vector<Network::Link>& Network::diverge(PeerId from) {
  SenderLinks& sl = links_[from];
  if (sl.row.empty()) {
    // Every recipient link shares the shared Link's history up to now; the
    // self link never belonged to it (broadcasts skip self), so it starts
    // fresh.
    sl.row.assign(k_, sl.shared);
    sl.row[from] = Link{};
    ++rows_;
    settle_links();
  }
  return sl.row;
}

void Network::attach(PeerId id, Receiver* receiver) {
  ASYNCDR_EXPECTS(id < k_);
  ASYNCDR_EXPECTS(receiver != nullptr);
  receivers_[id] = receiver;
}

void Network::set_latency_policy(std::unique_ptr<LatencyPolicy> policy) {
  ASYNCDR_EXPECTS(policy != nullptr);
  latency_ = std::move(policy);
}

void Network::set_observer(NetworkObserver* observer) { observer_ = observer; }

void Network::set_delivery_stressor(std::unique_ptr<DeliveryStressor> stressor) {
  stressor_ = std::move(stressor);
}

void Network::set_pre_send_hook(PreSendHook hook) {
  pre_send_hook_ = std::move(hook);
}

std::size_t Network::unit_messages(const Payload& payload) const {
  const std::size_t bits = payload.size_bits();
  return std::max<std::size_t>(1, (bits + message_size_bits_ - 1) / message_size_bits_);
}

bool Network::pass_pre_send(const Message& msg) {
  if (!pre_send_hook_) return true;
  pre_send_hook_(msg);
  // The hook may have crashed the sender; the send is then lost, which is
  // exactly the "crashed mid-operation" semantics of the paper's model. A
  // message that was never sent consumes no id and reaches no observer —
  // otherwise the causal DAG would see link edges for phantom sends.
  return !crashed_[msg.from];
}

void Network::account_send(const Message& msg, std::size_t units) {
  sent_units_[msg.from] += units;
  sent_payloads_[msg.from] += 1;
  last_send_at_[msg.from] = engine_.now();
  if (observer_) observer_->on_send(msg, units);
}

template <typename Emit>
void Network::reserve_copies(const Message& msg, std::size_t units,
                             Emit&& emit) {
  // Link serialization: one unit message per directed link per time unit.
  Link& l = diverge(msg.from)[msg.to];
  const Time departure = std::max(engine_.now(), l.next_free);
  l.next_free = departure + static_cast<Time>(units);
  l.used = true;
  const Time transmission = static_cast<Time>(units - 1);
  const Time arrival = departure + transmission + latency_->propagation(msg);

  // A beyond-model stressor may replicate the delivery and/or hold copies
  // past the scheduled arrival. In-model runs take the single-copy path.
  const std::size_t copies =
      stressor_ ? std::max<std::size_t>(1, stressor_->copies(msg)) : 1;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    Time at = arrival;
    if (stressor_) {
      const Time extra = stressor_->extra_delay(msg, copy);
      ASYNCDR_EXPECTS_MSG(extra >= 0, "stressor extra delay must be >= 0");
      at += extra;
    }
    ++l.in_flight;
    ++total_in_flight_;
    bank_.charge(msg.payload, 1);
    emit(at);
  }
}

void Network::finish_delivery(const Message& msg) {
  // The revive gate: a copy sent strictly before the recipient's latest
  // revival belonged to the dead incarnation's inbox and stays lost (see
  // revive()); an on_restart-time send at now == revived_at goes through.
  if (crashed_[msg.to] || receivers_[msg.to] == nullptr ||
      msg.sent_at < revived_at_[msg.to]) {
    if (observer_) observer_->on_drop(msg);
    return;
  }
  last_delivery_at_[msg.to] = engine_.now();
  if (observer_) observer_->on_deliver(msg);
  receivers_[msg.to]->deliver(msg);
}

void Network::deliver_or_drop(const Message& msg) {
  --pending_events_;
  --links_[msg.from].row[msg.to].in_flight;
  --total_in_flight_;
  bank_.credit(msg.payload.get(), 1);
  finish_delivery(msg);
}

template <typename Members>
void Network::deliver_bucket(PeerId from, const PayloadPtr& payload,
                             Time sent_at, std::uint64_t copies,
                             Members&& members) {
  --pending_events_;
  // Settle link state before any receiver runs: deliveries below may send
  // new traffic, and reservations must already reflect these arrivals.
  SenderLinks& sl = links_[from];
  if (sl.row.empty() && copies == k_ - 1) {
    // A row-less sender's buckets come from shared-path broadcasts, which
    // reach every recipient once: this bucket settles one copy on EVERY
    // link (the fault-free FixedLatency schedule), so one decrement of the
    // shared Link covers them all.
    ASYNCDR_INVARIANT(sl.shared.in_flight > 0);
    --sl.shared.in_flight;
  } else {
    // A partial settle takes the members out of step with the rest:
    // the sender diverges (if it has not already) and settles per link.
    std::vector<Link>& row = diverge(from);
    members([&row](PeerId to, std::uint64_t) { --row[to].in_flight; });
  }
  total_in_flight_ -= copies;
  bank_.credit(payload.get(), copies);

  // Crash state is re-checked per member at delivery time (an earlier
  // member's receiver may crash a later member's), exactly as separate
  // per-recipient events would.
  Message msg{from, kNoPeer, payload, sent_at, 0};
  members([&](PeerId to, std::uint64_t id) {
    msg.to = to;
    msg.id = id;
    finish_delivery(msg);
  });
}

void Network::send(PeerId from, PeerId to, PayloadPtr payload) {
  ASYNCDR_EXPECTS(from < k_ && to < k_);
  ASYNCDR_EXPECTS(payload != nullptr);
  if (crashed_[from]) return;
  payload = bank_.intern(std::move(payload));

  Message msg{from, to, std::move(payload), engine_.now(), next_message_id_};
  if (!pass_pre_send(msg)) return;
  ++next_message_id_;

  const std::size_t units = unit_messages(*msg.payload);
  account_send(msg, units);
  reserve_copies(msg, units, [&](Time at) {
    engine_.schedule_at(at, [this, msg]() { deliver_or_drop(msg); });
    ++pending_events_;
  });
}

void Network::broadcast(PeerId from, PayloadPtr payload) {
  ASYNCDR_EXPECTS(from < k_);
  ASYNCDR_EXPECTS(payload != nullptr);
  if (crashed_[from]) return;
  payload = bank_.intern(std::move(payload));
  const Time sent_at = engine_.now();
  const std::size_t units = unit_messages(*payload);

  // Per-recipient semantics match k-1 send() calls: the pre-send hook,
  // accounting, link reservation and stressor sampling all run per
  // recipient in increasing ID order, so traces are byte-identical. Only
  // the scheduling differs: copies landing at the same instant share ONE
  // event that delivers to each in turn.
  //
  // Shared path (row-less sender, no hook, no stressor): every recipient
  // link shares the shared Link's history, so the whole wave departs at
  // one instant and the shared Link advances ONCE after the loop. A hook or
  // stressor makes per-recipient outcomes diverge, so that path reserves
  // each link in the sender's row, as send() does.
  std::vector<Arrival> arrivals;
  arrivals.reserve(k_ - 1);
  SenderLinks& sl = links_[from];
  const bool shared_path = sl.row.empty() && !pre_send_hook_ && !stressor_;
  const Time shared_departure = std::max(sent_at, sl.shared.next_free);

  for (PeerId to = 0; to < k_; ++to) {
    if (to == from) continue;
    // pass_pre_send returning false means the hook crashed the sender:
    // the remaining recipients never get their sends (died mid-broadcast),
    // but the copies already committed below still go out.
    Message msg{from, to, payload, sent_at, next_message_id_};
    if (!pass_pre_send(msg)) break;
    ++next_message_id_;
    account_send(msg, units);
    if (shared_path) {
      arrivals.push_back({shared_departure + static_cast<Time>(units - 1) +
                              latency_->propagation(msg),
                          to, msg.id});
      ++total_in_flight_;
      bank_.charge(payload, 1);
    } else {
      reserve_copies(msg, units,
                     [&](Time at) { arrivals.push_back({at, to, msg.id}); });
    }
  }
  if (shared_path) {
    sl.shared.next_free = shared_departure + static_cast<Time>(units);
    sl.shared.used = true;
    ++sl.shared.in_flight;
  }

  // Buckets fire in ascending arrival order; each bucket's members in
  // recipient-ID order. Entries equal in (at, id) are stressor duplicates
  // of one copy and interchangeable, so this order is exactly a stable sort
  // by arrival. A fixed-latency broadcast arrives already sorted; skipping
  // its sort keeps a k-wide broadcast O(k).
  if (arrivals.empty()) return;
  const auto by_arrival = [](const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at < b.at : a.id < b.id;
  };
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), by_arrival)) {
    std::sort(arrivals.begin(), arrivals.end(), by_arrival);
  }
  if (arrivals.front().at != arrivals.back().at) {
    launch_wave(from, payload, sent_at, std::move(arrivals));
    return;
  }
  SpanList spans;
  for (const Arrival& a : arrivals) {
    if (!spans.empty() && spans.back().to_first + spans.back().count == a.to &&
        spans.back().id_first + spans.back().count == a.id) {
      ++spans.back().count;
    } else {
      spans.push_back(FanoutSpan{a.to, a.id, 1});
    }
  }
  schedule_bucket(from, payload, sent_at, arrivals.front().at, spans);
}

namespace {

// Free helpers over Network's private bucket types (deduced, not named).

/// A span-encoded bucket's members, in span order (= recipient-ID order).
template <typename Span>
auto span_members(std::span<const Span> spans) {
  return [spans](auto&& fn) {
    for (const Span& s : spans) {
      for (std::uint64_t j = 0; j < s.count; ++j) {
        fn(s.to_first + j, s.id_first + j);
      }
    }
  };
}

/// Modeled bytes of an in-flight wave: the Wave cell plus its arrivals.
template <typename Wave>
std::uint64_t wave_bytes(const Wave& wave) {
  return obs::modeled_alloc_bytes(sizeof(Wave)) +
         obs::modeled_alloc_bytes(wave.arrivals.capacity() *
                                  sizeof(wave.arrivals.front()));
}

}  // namespace

void Network::schedule_bucket(PeerId from, const PayloadPtr& payload,
                              Time sent_at, Time at, SpanList& spans) {
  ++pending_events_;
  if (spans.size() == 1) {
    // A single span (a broadcast from peer 0 or k-1, say) rides inline in
    // the closure, which still fits InlineAction's buffer.
    auto deliver = [this, from, payload, sent_at, span = spans.front()]() {
      deliver_bucket(from, payload, sent_at, span.count,
                     span_members(std::span<const FanoutSpan>(&span, 1)));
    };
    static_assert(sizeof(deliver) <= InlineAction::kInlineBytes);
    engine_.schedule_at(at, std::move(deliver));
    spans.clear();
    return;
  }
  // A multi-span buffer's modeled bytes are charged to the fanout pool for
  // its in-flight lifetime; the bucket event credits them back from the
  // capacity it actually carried (vector move preserves capacity, so
  // charge and credit agree byte-for-byte).
  if (fanout_pool_ != nullptr) {
    fanout_pool_->add(
        obs::modeled_alloc_bytes(spans.capacity() * sizeof(FanoutSpan)));
  }
  engine_.schedule_at(
      at, [this, from, payload, sent_at, spans = std::move(spans)]() {
        std::uint64_t copies = 0;
        for (const FanoutSpan& s : spans) copies += s.count;
        deliver_bucket(from, payload, sent_at, copies,
                       span_members(std::span<const FanoutSpan>(spans)));
        if (fanout_pool_ != nullptr) {
          fanout_pool_->sub(obs::modeled_alloc_bytes(
              spans.capacity() * sizeof(FanoutSpan)));
        }
      });
  spans = SpanList{};
}

void Network::launch_wave(PeerId from, const PayloadPtr& payload,
                          Time sent_at, std::vector<Arrival>&& arrivals) {
  // Reserve one seq per distinct arrival time now, so bucket i fires under
  // the key an eager schedule of every bucket here would have given it.
  std::uint64_t buckets = 1;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i].at != arrivals[i - 1].at) ++buckets;
  }
  auto wave = std::make_unique<Wave>(Wave{from, payload, sent_at,
                                          engine_.reserve_seqs(buckets), 0,
                                          std::move(arrivals)});
  pending_events_ += buckets;
  if (fanout_pool_ != nullptr) fanout_pool_->add(wave_bytes(*wave));
  arm_wave(std::move(wave));
}

void Network::arm_wave(std::unique_ptr<Wave> wave) {
  const Time at = wave->arrivals[wave->next].at;
  const std::uint64_t seq = wave->next_seq++;
  engine_.schedule_reserved(
      at, seq, [this, wave = std::move(wave)]() mutable {
        fire_wave(std::move(wave));
      });
}

void Network::fire_wave(std::unique_ptr<Wave> wave) {
  // Re-arm first: the next bucket's key (t_{i+1}, s_{i+1}) is larger than
  // the key that just fired, so inserting it now pops the same total order
  // as having inserted it at send time. The Wave cell stays put whether the
  // engine re-owns it or `wave` frees it on return, so `w` outlives this
  // bucket's deliveries either way.
  Wave& w = *wave;
  const std::size_t begin = w.next;
  const Time at = w.arrivals[begin].at;
  std::size_t end = begin + 1;
  while (end < w.arrivals.size() && w.arrivals[end].at == at) ++end;
  w.next = end;
  if (end < w.arrivals.size()) {
    arm_wave(std::move(wave));
  } else if (fanout_pool_ != nullptr) {
    fanout_pool_->sub(wave_bytes(w));  // the last bucket retires the wave
  }
  deliver_bucket(w.from, w.payload, w.sent_at, end - begin,
                 [&w, begin, end](auto&& fn) {
                   for (std::size_t i = begin; i < end; ++i) {
                     fn(w.arrivals[i].to, w.arrivals[i].id);
                   }
                 });
}

void Network::crash(PeerId id) {
  ASYNCDR_EXPECTS(id < k_);
  crashed_[id] = true;
}

void Network::revive(PeerId id) {
  ASYNCDR_EXPECTS(id < k_);
  crashed_[id] = false;
  revived_at_[id] = engine_.now();
  // Clear the dead incarnation's OUTGOING bandwidth reservations: the
  // fresh incarnation's first sends must not queue behind ghost traffic
  // from before the crash. In-flight counters stay untouched — copies the
  // dead peer did get out still settle normally at arrival — and incoming
  // links are untouched too (their senders really transmitted; the revive
  // gate in finish_delivery is what keeps stale mail out).
  SenderLinks& sl = links_[id];
  sl.shared.next_free = 0;
  for (Link& l : sl.row) l.next_free = 0;
}

bool Network::is_crashed(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return crashed_[id];
}

std::size_t Network::crashed_count() const {
  return static_cast<std::size_t>(
      std::count(crashed_.begin(), crashed_.end(), true));
}

std::uint64_t Network::sent_units(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return sent_units_[id];
}

std::uint64_t Network::sent_payloads(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return sent_payloads_[id];
}

std::uint64_t Network::in_flight(PeerId from, PeerId to) const {
  ASYNCDR_EXPECTS(from < k_ && to < k_);
  const SenderLinks& sl = links_[from];
  if (!sl.row.empty()) return sl.row[to].in_flight;
  // The shared Link never stands for the self link (broadcasts skip self).
  return to == from ? 0 : sl.shared.in_flight;
}

std::size_t Network::active_links() const {
  std::size_t total = 0;
  for (const SenderLinks& sl : links_) {
    if (!sl.row.empty()) {
      total += static_cast<std::size_t>(std::count_if(
          sl.row.begin(), sl.row.end(), [](const Link& l) { return l.used; }));
    } else if (sl.shared.used) {
      total += k_ - 1;
    }
  }
  return total;
}

std::vector<Network::BusyLink> Network::busy_links() const {
  std::vector<BusyLink> busy;
  for (PeerId from = 0; from < k_; ++from) {
    const SenderLinks& sl = links_[from];
    if (sl.row.empty() && sl.shared.in_flight == 0) continue;
    for (PeerId to = 0; to < k_; ++to) {
      const std::uint64_t inflight = in_flight(from, to);
      if (inflight > 0) busy.push_back({from, to, inflight});
    }
  }
  return busy;
}

Time Network::last_send_at(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return last_send_at_[id];
}

Time Network::last_delivery_at(PeerId id) const {
  ASYNCDR_EXPECTS(id < k_);
  return last_delivery_at_[id];
}

}  // namespace asyncdr::sim
