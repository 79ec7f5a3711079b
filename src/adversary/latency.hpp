// Scheduling-adversary strategies: concrete LatencyPolicy implementations.
// Upper-bound protocols must stay correct under every one of these; the
// lower-bound constructions use the targeted policies to build the paper's
// indistinguishable executions.
#pragma once

#include <functional>
#include <unordered_set>

#include "common/rng.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"

namespace asyncdr::adv {

/// Independent uniform latencies in [lo, hi]. The classic "random
/// asynchrony" schedule.
class UniformLatency final : public sim::LatencyPolicy {
 public:
  UniformLatency(Rng rng, sim::Time lo = 0.05, sim::Time hi = 1.0);
  sim::Time propagation(const sim::Message& msg) override;

 private:
  Rng rng_;
  sim::Time lo_, hi_;
};

/// Messages *from* a designated set of peers are delayed by `slow`; all
/// other traffic travels at `fast`. This is the paper's lower-bound
/// adversary move: hold back one honest group until the victim terminates.
class SenderDelayLatency final : public sim::LatencyPolicy {
 public:
  SenderDelayLatency(std::unordered_set<sim::PeerId> slow_senders,
                     sim::Time slow, sim::Time fast = 0.01);
  sim::Time propagation(const sim::Message& msg) override;

 private:
  std::unordered_set<sim::PeerId> slow_senders_;
  sim::Time slow_, fast_;
};

/// Deterministic order-inversion: the higher the sender ID, the faster its
/// messages. Stresses protocols that implicitly assume FIFO-ish arrival
/// across peers.
class SeniorityLatency final : public sim::LatencyPolicy {
 public:
  SeniorityLatency(std::size_t k, sim::Time lo = 0.1, sim::Time hi = 1.0);
  sim::Time propagation(const sim::Message& msg) override;

 private:
  std::size_t k_;
  sim::Time lo_, hi_;
};

/// Arbitrary per-message latency via a callback — the fully general
/// adversary for one-off constructions and tests.
class CallbackLatency final : public sim::LatencyPolicy {
 public:
  using Fn = std::function<sim::Time(const sim::Message&)>;
  explicit CallbackLatency(Fn fn);
  sim::Time propagation(const sim::Message& msg) override;

 private:
  Fn fn_;
};

}  // namespace asyncdr::adv
