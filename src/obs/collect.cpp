#include "obs/collect.hpp"

#include "common/check.hpp"

namespace asyncdr::obs {

namespace {

template <typename T>
Json array_of(const std::vector<T>& values) {
  Json out = Json::array();
  for (const T& v : values) out.push_back(static_cast<std::uint64_t>(v));
  return out;
}

}  // namespace

void RunMetricsCollector::attach(dr::World& world) {
  ASYNCDR_EXPECTS_MSG(engine_ == nullptr, "collector already attached");
  engine_ = &world.engine();
  peer_query_calls_.assign(world.config().k, 0);
  world.add_observer(this);
  world.add_query_listener([this](sim::PeerId peer, std::size_t bits) {
    ++peer_query_calls_[peer];
    query_bits_.observe(static_cast<double>(bits));
  });
}

void RunMetricsCollector::on_send(const sim::Message& msg,
                                  std::size_t /*unit_messages*/) {
  payload_bits_.observe(static_cast<double>(msg.payload->size_bits()));
  queue_depth_.observe(static_cast<double>(engine_->pending()));
}

void RunMetricsCollector::on_deliver(const sim::Message& msg) {
  latency_.observe(engine_->now() - msg.sent_at);
  queue_depth_.observe(static_cast<double>(engine_->pending()));
}

void RunMetricsCollector::on_drop(const sim::Message& /*msg*/) {
  ++dropped_;
}

Json RunMetricsCollector::snapshot(const dr::World& world,
                                   const dr::RunReport& report) const {
  const sim::Network& net = world.network();
  Json run = Json::object();
  run["ok"] = report.ok();
  run["query_complexity_bits"] = std::uint64_t{report.query_complexity};
  run["time_complexity"] = report.time_complexity;
  run["message_complexity_units"] = report.message_complexity;
  run["total_query_bits"] = report.total_queries;
  run["events"] = std::uint64_t{report.events};
  run["source_bits_served"] = world.source().total_bits_served();
  // Directed links that ever carried traffic (at most k*k).
  run["net_active_links"] = std::uint64_t{net.active_links()};
  run["net_dropped_messages"] = dropped_;

  Json phases = Json::array();
  for (const dr::RunReport::PhaseBreakdown& ph : report.phases) {
    Json p = Json::object();
    p["name"] = ph.name;
    p["query_bits"] = ph.bits_queried;
    p["unit_messages"] = ph.unit_messages;
    p["max_span"] = ph.max_span;
    phases.push_back(std::move(p));
  }

  // Crash-recovery accounting (all zero on crash-stop worlds). The resume
  // path runs inside the "recovery" protocol phase, so its Q/T/M share also
  // shows up in the phases above; these totals say how much of the work the
  // journal avoided re-doing.
  const dr::RecoveryStats& rec = report.recovery;
  Json recovery = Json::object();
  recovery["restarts"] = rec.restarts;
  recovery["journal_replays"] = rec.journal_replays;
  recovery["cold_fallbacks"] = rec.cold_fallbacks;
  recovery["torn_tails"] = rec.torn_tails;
  recovery["bits_recovered"] = rec.bits_recovered;
  recovery["queries_saved"] = rec.queries_saved;

  // Per-subsystem byte accounting (modeled bytes; see obs/mem.hpp).
  Json pools = Json::array();
  for (const MemPoolStats& pool : report.mem_pools) {
    Json p = Json::object();
    p["name"] = pool.name;
    p["bytes"] = pool.current;
    p["peak_bytes"] = pool.peak;
    pools.push_back(std::move(p));
  }
  Json mem = Json::object();
  mem["pools"] = std::move(pools);
  mem["total_peak_bytes"] = report.mem_total_peak;

  Json unit_messages = Json::array();
  Json payload_messages = Json::array();
  for (sim::PeerId p = 0; p < world.config().k; ++p) {
    unit_messages.push_back(net.sent_units(p));
    payload_messages.push_back(net.sent_payloads(p));
  }
  Json peers = Json::object();
  peers["query_bits"] = array_of(report.per_peer_queries);
  peers["query_calls"] = array_of(peer_query_calls_);
  peers["unit_messages"] = std::move(unit_messages);
  peers["payload_messages"] = std::move(payload_messages);

  Json histograms = Json::object();
  histograms["source_query_bits"] = query_bits_.snapshot_json();
  histograms["net_payload_bits"] = payload_bits_.snapshot_json();
  histograms["net_latency"] = latency_.snapshot_json();
  histograms["sim_event_queue_depth"] = queue_depth_.snapshot_json();

  Json out = Json::object();
  out["schema"] = "asyncdr-metrics-v2";
  out["run"] = std::move(run);
  out["phases"] = std::move(phases);
  out["recovery"] = std::move(recovery);
  out["mem"] = std::move(mem);
  out["peers"] = std::move(peers);
  out["histograms"] = std::move(histograms);
  return out;
}

}  // namespace asyncdr::obs
