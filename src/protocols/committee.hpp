// Theorem 3.4: deterministic asynchronous Download under Byzantine faults
// with beta < 1/2. A committee of c = 2t+1 peers is assigned to every bit in
// round-robin order; each member queries its bits and broadcasts the values;
// every peer decides bit j on the first value reported by t+1 distinct
// members of j's committee. Since a committee has at least t+1 honest
// members and at most t Byzantine ones, the t+1 threshold is reachable only
// by the true value, and is always eventually reached.
//
// Q = (number of committees per peer) = ceil(n*c/k) ~ 2*beta*n + n/k.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "dr/peer.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Round-robin committee structure: committee of bit j is the c consecutive
/// peer IDs starting at (j*c) mod k.
class CommitteeAssignment {
 public:
  CommitteeAssignment(std::size_t n, std::size_t k, std::size_t t);

  [[nodiscard]] std::size_t committee_size() const { return c_; }
  [[nodiscard]] std::size_t threshold() const { return t_ + 1; }

  [[nodiscard]] bool is_member(sim::PeerId p, std::size_t bit) const;
  /// Bits whose committee contains p, in increasing order. Membership
  /// repeats with period k / gcd(c, k), so this costs O(period + |bits|).
  [[nodiscard]] std::vector<std::size_t> bits_of(sim::PeerId p) const;
  /// The committee of a bit, in position order.
  [[nodiscard]] std::vector<sim::PeerId> members_of(std::size_t bit) const;

 private:
  std::size_t n_, k_, t_, c_;
};

namespace committee {

/// One batched broadcast per peer: the values of every bit the sender's
/// committees cover, in increasing bit order. Receivers recompute the bit
/// list from the sender ID (the assignment is deterministic), so only the
/// values are charged.
struct Votes final : sim::Payload {
  BitVec values;

  explicit Votes(BitVec v) : values(std::move(v)) {}
  [[nodiscard]] std::size_t size_bits() const override { return values.size() + 64; }
  [[nodiscard]] std::string type_name() const override { return "committee::Votes"; }
};

}  // namespace committee

/// An honest peer of the committee protocol. Requires beta < 1/2.
class CommitteePeer final : public dr::Peer {
 public:
  struct Options {
    /// FAULT INJECTION, never set outside tests/chaos sweeps: accept a bit
    /// on t matching votes instead of t+1. The off-by-one lets a full
    /// Byzantine coalition inside one committee outvote the honest members
    /// — exactly the class of bug the chaos sweep must catch and shrink.
    bool buggy_vote_threshold = false;
  };

  CommitteePeer() = default;
  explicit CommitteePeer(Options opts) : opts_(opts) {}

  void on_start() override;
  [[nodiscard]] std::string status() const override;

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void init();
  void process_votes(sim::PeerId from, const committee::Votes& votes);
  void decide(std::size_t bit, bool value);
  void maybe_finish();
  [[nodiscard]] std::size_t accept_threshold() const;

  Options opts_;
  std::unique_ptr<CommitteeAssignment> assignment_;
  BitVec out_;
  std::vector<bool> decided_;
  std::size_t decided_count_ = 0;
  // Per bit: votes received for value 0 / value 1 from distinct members.
  std::vector<std::uint32_t> votes0_, votes1_;
  // Per sender: a well-formed Votes has been counted (dedup; a member votes
  // once for all of its bits).
  std::vector<bool> heard_;
  bool started_ = false;
  // Termination is gated on having broadcast my own votes: an honest member
  // that finished early but silently would strand other peers below the
  // t+1 threshold.
  bool votes_sent_ = false;
};

}  // namespace asyncdr::proto
