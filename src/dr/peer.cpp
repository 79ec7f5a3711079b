#include "dr/peer.hpp"

#include "common/check.hpp"
#include "dr/world.hpp"
#include "obs/mem.hpp"

namespace asyncdr::dr {

Peer::~Peer() = default;

std::string Peer::status() const {
  return terminated_ ? "terminated" : "running (no protocol status)";
}

std::size_t Peer::memory_bytes() const {
  return static_cast<std::size_t>(
      obs::modeled_alloc_bytes(output_.memory_bytes()));
}

std::size_t Peer::k() const { return world_->config().k; }
std::size_t Peer::n() const { return world_->config().n; }

void Peer::deliver(const sim::Message& msg) {
  if (terminated_) return;
  if (world_->network().is_crashed(id_)) return;
  on_message(msg.from, *msg.payload);
}

void Peer::send(sim::PeerId to, sim::PayloadPtr payload) {
  world_->network().send(id_, to, std::move(payload));
}

void Peer::broadcast(sim::PayloadPtr payload) {
  world_->network().broadcast(id_, std::move(payload));
}

BitVec Peer::query_runs(std::span<const Interval> runs) {
  return world_->source().query_runs(id_, runs);
}

sim::Time Peer::now() const { return world_->engine().now(); }

void Peer::on_restart(const RecoveryState& state) {
  (void)state;
  on_start();
}

bool Peer::crashed() const { return world_->network().is_crashed(id_); }

bool Peer::journaling() const { return world_->recovery_enabled(); }

bool Peer::journal_runs(std::span<const Interval> runs,
                        const BitVec& values) {
  if (!journaling()) return true;
  std::size_t bits = 0;
  for (const Interval& run : runs) bits += run.length();
  ASYNCDR_EXPECTS(bits == values.size());
  Journal journal = world_->journal_for(id_);
  // A kill between runs leaves a valid prefix: strictly fewer claimed bits
  // than downloaded, never more.
  std::size_t at = 0;
  for (const Interval& run : runs) {
    if (!journal.append_bits(run.lo, values, at, run.length())) return false;
    at += run.length();
  }
  return true;
}

bool Peer::journal_checkpoint(const std::string& name, std::uint64_t value) {
  if (!journaling()) return true;
  return world_->journal_for(id_).checkpoint(name, value);
}

void Peer::credit_queries_saved(std::size_t bits) {
  world_->credit_queries_saved(bits);
}

void Peer::begin_phase(std::string name) {
  world_->begin_phase(id_, std::move(name));
}

void Peer::finish(BitVec output) {
  ASYNCDR_EXPECTS_MSG(!terminated_, "finish() called twice");
  terminated_ = true;
  if (!world_->faulty_[id_]) {
    ASYNCDR_INVARIANT(world_->running_nonfaulty_ > 0);
    --world_->running_nonfaulty_;
  }
  output_ = std::move(output);
  termination_time_ = now();
  world_->phase_tracker_.close(id_, termination_time_);
  if (world_->trace()) {
    world_->trace()->record_terminate(termination_time_, id_);
  }
}

void Peer::bind(World* world, sim::PeerId id, Rng rng) {
  world_ = world;
  id_ = id;
  rng_ = rng;
}

}  // namespace asyncdr::dr
