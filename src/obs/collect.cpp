#include "obs/collect.hpp"

#include <string>

#include "common/check.hpp"

namespace asyncdr::obs {

namespace {

std::vector<double> latency_bounds() {
  // Propagation delays live in (0, 1]; serialized multi-unit transfers and
  // beyond-model stressors push past that.
  return {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
}

}  // namespace

void RunMetricsCollector::attach(dr::World& world) {
  ASYNCDR_EXPECTS_MSG(world_ == nullptr, "collector already attached");
  world_ = &world;
  const std::size_t k = world.config().k;

  query_bits_ =
      &registry_.histogram("source_query_bits", Histogram::pow2_bounds(16));
  payload_bits_ =
      &registry_.histogram("net_payload_bits", Histogram::pow2_bounds(20));
  queue_depth_ =
      &registry_.histogram("sim_event_queue_depth", Histogram::pow2_bounds(16));
  dropped_ = &registry_.counter("net_dropped_messages_total");

  peer_query_bits_.resize(k);
  peer_queries_.resize(k);
  peer_unit_messages_.resize(k);
  peer_payload_messages_.resize(k);
  for (std::size_t p = 0; p < k; ++p) {
    const Labels peer{{"peer", std::to_string(p)}};
    peer_query_bits_[p] =
        &registry_.counter("source_query_bits_total", peer);
    peer_queries_[p] = &registry_.counter("source_queries_total", peer);
    peer_unit_messages_[p] =
        &registry_.counter("net_unit_messages_total", peer);
    peer_payload_messages_[p] =
        &registry_.counter("net_payload_messages_total", peer);
  }
  // Per-link latency series (and their map slots) are created lazily on
  // first delivery: k^2 of them exist in principle, most never carry a
  // message, and attach() must not pay for the quiet ones.

  world.add_observer(this);
  world.add_query_listener([this](sim::PeerId peer, std::size_t bits) {
    peer_query_bits_[peer]->add(bits);
    peer_queries_[peer]->add(1);
    query_bits_->observe(static_cast<double>(bits));
  });
}

void RunMetricsCollector::sample_queue_depth() {
  queue_depth_->observe(static_cast<double>(world_->engine().pending()));
}

void RunMetricsCollector::on_send(const sim::Message& msg,
                                  std::size_t unit_messages) {
  peer_unit_messages_[msg.from]->add(unit_messages);
  peer_payload_messages_[msg.from]->add(1);
  payload_bits_->observe(static_cast<double>(msg.payload->size_bits()));
  sample_queue_depth();
}

void RunMetricsCollector::on_deliver(const sim::Message& msg) {
  const std::size_t k = world_->config().k;
  Histogram*& h =
      link_latency_[static_cast<std::uint64_t>(msg.from) * k + msg.to];
  if (h == nullptr) {
    h = &registry_.histogram("net_link_latency", latency_bounds(),
                             {{"from", std::to_string(msg.from)},
                              {"to", std::to_string(msg.to)}});
  }
  h->observe(world_->engine().now() - msg.sent_at);
  sample_queue_depth();
}

void RunMetricsCollector::on_drop(const sim::Message& msg) {
  (void)msg;
  dropped_->add(1);
}

void RunMetricsCollector::finalize(const dr::RunReport& report) {
  registry_.gauge("run_query_complexity_bits")
      .set(static_cast<double>(report.query_complexity));
  registry_.gauge("run_time_complexity").set(report.time_complexity);
  registry_.gauge("run_message_complexity_units")
      .set(static_cast<double>(report.message_complexity));
  registry_.gauge("run_total_query_bits")
      .set(static_cast<double>(report.total_queries));
  registry_.gauge("run_events").set(static_cast<double>(report.events));
  registry_.gauge("run_ok").set(report.ok() ? 1 : 0);
  registry_.gauge("source_bits_served_total")
      .set(static_cast<double>(world_->source().total_bits_served()));
  // Directed links that ever carried traffic (at most k*k).
  registry_.gauge("net_active_links")
      .set(static_cast<double>(world_->network().active_links()));
  for (const dr::RunReport::PhaseBreakdown& ph : report.phases) {
    const Labels labels{{"phase", ph.name}};
    registry_.gauge("phase_query_bits", labels)
        .set(static_cast<double>(ph.bits_queried));
    registry_.gauge("phase_unit_messages", labels)
        .set(static_cast<double>(ph.unit_messages));
    registry_.gauge("phase_max_span", labels).set(ph.max_span);
  }
  // Crash-recovery accounting (all zero on crash-stop worlds). The resume
  // path runs inside the "recovery" protocol phase, so its Q/T/M share also
  // shows up in the per-phase gauges above; these totals say how much of the
  // work the journal avoided re-doing.
  const dr::RecoveryStats& rec = report.recovery;
  registry_.gauge("recovery_restarts")
      .set(static_cast<double>(rec.restarts));
  registry_.gauge("recovery_journal_replays")
      .set(static_cast<double>(rec.journal_replays));
  registry_.gauge("recovery_cold_fallbacks")
      .set(static_cast<double>(rec.cold_fallbacks));
  registry_.gauge("recovery_torn_tails")
      .set(static_cast<double>(rec.torn_tails));
  registry_.gauge("recovery_bits_recovered")
      .set(static_cast<double>(rec.bits_recovered));
  registry_.gauge("recovery_queries_saved")
      .set(static_cast<double>(rec.queries_saved));
  // Per-subsystem byte accounting (modeled bytes; see obs/mem.hpp). One
  // labeled gauge pair per pool plus the cross-pool simultaneous peak.
  for (const MemPoolStats& pool : report.mem_pools) {
    const Labels labels{{"pool", pool.name}};
    registry_.gauge("mem_pool_bytes", labels)
        .set(static_cast<double>(pool.current));
    registry_.gauge("mem_pool_peak_bytes", labels)
        .set(static_cast<double>(pool.peak));
  }
  registry_.gauge("mem_total_peak_bytes")
      .set(static_cast<double>(report.mem_total_peak));
}

}  // namespace asyncdr::obs
