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

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/interval_set.hpp"
#include "dr/peer.hpp"
#include "sim/message.hpp"

namespace asyncdr::proto {

/// Round-robin committee structure: committee of bit j is the c consecutive
/// peer IDs starting at (j*c) mod k. Membership of bit j depends only on
/// (j*c) mod k, so it repeats with period P = k / gcd(c, k), and every peer
/// sits on exactly c / gcd(c, k) committees of each whole period.
class CommitteeAssignment {
 public:
  /// Requires 2t+1 <= k.
  CommitteeAssignment(std::size_t n, std::size_t k, std::size_t t);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t committee_size() const { return c_; }
  [[nodiscard]] std::size_t threshold() const { return t_ + 1; }
  /// P = k / gcd(c, k): bit j's committee is that of bit j mod P.
  [[nodiscard]] std::size_t period() const { return period_; }
  /// c / gcd(c, k): the member residues of a peer in one period, and the
  /// stride of its vote vector from one period to the next.
  [[nodiscard]] std::size_t residues_per_period() const { return c_ / gcd_; }

  /// |bits_of(p)|: c/gcd(c, k) bits per whole period, plus the member
  /// residues below n mod P.
  [[nodiscard]] std::size_t load_of(sim::PeerId p) const;
  /// Calls fn(bit, j) for every bit whose committee contains p, where j is
  /// the bit's rank among them (its index in bits_of(p), and in p's vote
  /// vector). Visits residue by residue, each residue's bits upward, so the
  /// bits do not come in increasing order. Allocation-free, O(P + |bits|).
  template <typename F>
  void for_each_bit_of(sim::PeerId p, F&& fn) const {
    const std::size_t per_period = c_ / gcd_;
    std::size_t rank = 0;
    for_each_member_residue(p, std::min(period_, n_), [&](std::size_t s) {
      // Rank of s + m*P: m whole periods of members before it, then rank.
      for (std::size_t bit = s, j = rank; bit < n_;
           bit += period_, j += per_period) {
        fn(bit, j);
      }
      ++rank;
    });
  }
  /// Bits whose committee contains p, in increasing order.
  [[nodiscard]] std::vector<std::size_t> bits_of(sim::PeerId p) const;
  /// bits_of(p) as unit runs [bit, bit + 1): the source batch p queries,
  /// whose answer bit j is the value of bits_of(p)[j].
  [[nodiscard]] std::vector<Interval> runs_of(sim::PeerId p) const;

  /// Calls fn(s) for every residue s < limit (<= P) whose committee
  /// contains p, in increasing order.
  template <typename F>
  void for_each_member_residue(sim::PeerId p, std::size_t limit,
                               F&& fn) const {
    ASYNCDR_EXPECTS(p < k_);
    std::size_t start = 0;  // (s*c) mod k
    for (std::size_t s = 0; s < limit; ++s) {
      if ((p >= start ? p - start : p + k_ - start) < c_) fn(s);
      start += c_;
      if (start >= k_) start -= k_;
    }
  }

 private:
  std::size_t n_, k_, t_, c_;
  std::size_t gcd_;     ///< gcd(c, k)
  std::size_t period_;  ///< P = k / gcd(c, k)
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

/// One peer's count of committee votes. Per bit it counts the votes of
/// distinct committee members for each value, and decides the bit on the
/// first value to reach the threshold. A sender counts once: its first
/// well-formed vector counts on every bit still undecided, and a decided
/// bit stays decided, so a later vector would count on nothing.
///
/// The counters are bit-sliced, 64 bits to a word operation. Bit s + m*P
/// (s < min(P, n)) is lane m mod 64 of lane word (s, m/64), residue-major.
/// A lane word holds a `decided` mask and, per value, B = bit_width(
/// threshold) counter planes: plane b has bit b of each lane's count. A
/// count stops at the threshold, so B planes always hold it. Lanes past a
/// residue's last period start decided and are never counted. add() cuts
/// a vote vector into blocks of 64 periods and turns each block into one
/// lane word per sender residue with a 64x64 bit transpose.
class Tally {
 public:
  /// Decides a bit on `threshold` matching votes, 1 <= threshold <=
  /// assignment.threshold().
  Tally(CommitteeAssignment assignment, std::size_t threshold);

  [[nodiscard]] const CommitteeAssignment& assignment() const {
    return assignment_;
  }

  /// Counts `from`'s vote vector. A vector whose length is not
  /// load_of(from) can only come from a Byzantine sender: it is dropped
  /// without marking the sender heard. Returns whether anything was
  /// counted (false also for a repeat sender or an id >= k).
  bool add(sim::PeerId from, const BitVec& values);
  /// Decides `bit` as `value` unless it is decided already (a peer's own
  /// queries are ground truth).
  void decide(std::size_t bit, bool value);

  /// Decided values (undecided bits read 0).
  [[nodiscard]] const BitVec& out() const { return out_; }
  [[nodiscard]] std::size_t decided_count() const { return decided_count_; }

  /// Modeled heap bytes (obs::modeled_alloc_bytes per allocation) of the
  /// lane words, out() and the heard flags.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  /// Counts, for the `count` <= 64 sender residues starting at rank
  /// `first_rank`, every period block of `values`.
  void add_block(const BitVec& values, std::size_t first_rank,
                 const std::size_t* residues, std::size_t count);
  /// Counts one vote on each lane of `ones` and `zeros` (disjoint sets of
  /// undecided lanes) of lane word (s, block), and decides the lanes that
  /// reach the threshold.
  void count_word(std::size_t s, std::size_t block, std::uint64_t ones,
                  std::uint64_t zeros);
  /// Adds one to each lane of `lanes` in the B planes at `planes`; returns
  /// the lanes that reached the threshold.
  std::uint64_t increment(std::uint64_t* planes, std::uint64_t lanes) const;
  [[nodiscard]] std::uint64_t* word(std::size_t s, std::size_t block) {
    return &lanes_[(s * blocks_ + block) * word_size_];
  }

  CommitteeAssignment assignment_;
  std::size_t threshold_;
  std::size_t planes_;  ///< B = bit_width(threshold)
  std::size_t blocks_;  ///< lane words per residue: ceil(periods / 64)
  std::size_t word_size_;  ///< uint64s per lane word: decided + 2B planes
  /// Per lane word: decided, then B planes for value 0, B for value 1.
  std::vector<std::uint64_t> lanes_;
  BitVec out_;
  BitVec heard_;  ///< per sender: a well-formed vector counted
  std::size_t decided_count_ = 0;
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
  /// Adds the tally's lane words, out() and heard flags to the base bytes.
  [[nodiscard]] std::size_t memory_bytes() const override;

 protected:
  void on_message(sim::PeerId from, const sim::Payload& payload) override;

 private:
  void init();
  void maybe_finish();

  Options opts_;
  std::unique_ptr<committee::Tally> tally_;  ///< built by init()
  // Termination is gated on having broadcast my own votes: an honest member
  // that finished early but silently would strand other peers below the
  // t+1 threshold.
  bool votes_sent_ = false;
};

}  // namespace asyncdr::proto
