#include "dr/world.hpp"
#include "protocols/committee.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace asyncdr::proto {

CommitteeAssignment::CommitteeAssignment(std::size_t n, std::size_t k,
                                         std::size_t t)
    : n_(n), k_(k), t_(t), c_(2 * t + 1) {
  ASYNCDR_EXPECTS_MSG(c_ <= k_,
                      "committee protocol needs beta < 1/2 (2t+1 <= k)");
}

bool CommitteeAssignment::is_member(sim::PeerId p, std::size_t bit) const {
  ASYNCDR_EXPECTS(p < k_ && bit < n_);
  return ((p + k_ - (bit * c_) % k_) % k_) < c_;
}

std::vector<std::size_t> CommitteeAssignment::bits_of(sim::PeerId p) const {
  // Membership of bit j depends only on (j*c) mod k: find the member
  // residues of one period and tile them.
  const std::size_t period = k_ / std::gcd(c_, k_);
  std::vector<std::size_t> residues;
  for (std::size_t s = 0; s < std::min(period, n_); ++s) {
    if (is_member(p, s)) residues.push_back(s);
  }
  std::vector<std::size_t> bits;
  if (residues.empty()) return bits;
  bits.reserve(residues.size() * ((n_ + period - 1) / period));
  for (std::size_t base = 0; base < n_; base += period) {
    for (std::size_t s : residues) {
      if (base + s >= n_) break;
      bits.push_back(base + s);
    }
  }
  return bits;
}

std::vector<sim::PeerId> CommitteeAssignment::members_of(std::size_t bit) const {
  ASYNCDR_EXPECTS(bit < n_);
  std::vector<sim::PeerId> members;
  members.reserve(c_);
  for (std::size_t i = 0; i < c_; ++i) members.push_back((bit * c_ + i) % k_);
  return members;
}

void CommitteePeer::on_start() {
  init();
  begin_phase("committee-query+vote");
  // Query every bit of my committees; my own queries are ground truth, so
  // those bits decide immediately.
  const std::vector<std::size_t> mine = assignment_->bits_of(id());
  const BitVec values = query_indices(mine);
  for (std::size_t j = 0; j < mine.size(); ++j) {
    decide(mine[j], values.get(j));
  }
  broadcast(std::make_shared<committee::Votes>(values));
  votes_sent_ = true;
  begin_phase("vote-collection");
  maybe_finish();
}

void CommitteePeer::on_message(sim::PeerId from, const sim::Payload& payload) {
  const auto* votes = sim::payload_as<committee::Votes>(payload);
  if (votes == nullptr) return;  // foreign/garbage payload: ignore
  init();
  process_votes(from, *votes);
  maybe_finish();
}

void CommitteePeer::init() {
  if (started_) return;
  started_ = true;
  const std::size_t t = world().config().max_faulty();
  assignment_ = std::make_unique<CommitteeAssignment>(n(), k(), t);
  out_ = BitVec(n());
  decided_.assign(n(), false);
  votes0_.assign(n(), 0);
  votes1_.assign(n(), 0);
  heard_.assign(k(), false);
}

void CommitteePeer::process_votes(sim::PeerId from,
                                  const committee::Votes& votes) {
  if (from >= k() || heard_[from]) return;
  const std::vector<std::size_t> bits = assignment_->bits_of(from);
  // A malformed (wrong-length) vote vector can only come from a Byzantine
  // sender; drop it entirely, without marking the sender heard.
  if (votes.values.size() != bits.size()) return;

  // A member votes once. Its first well-formed vector counts on every bit
  // still undecided; decided bits stay decided. Any later vector from the
  // same sender therefore has nothing left to count.
  heard_[from] = true;
  for (std::size_t j = 0; j < bits.size(); ++j) {
    const std::size_t bit = bits[j];
    if (decided_[bit]) continue;
    const bool value = votes.values.get(j);
    const std::uint32_t count = value ? ++votes1_[bit] : ++votes0_[bit];
    if (count >= accept_threshold()) decide(bit, value);
  }
}

std::size_t CommitteePeer::accept_threshold() const {
  const std::size_t threshold = assignment_->threshold();
  // The injected off-by-one: t votes suffice, so t colluding liars can
  // decide a bit. Guarded so the bug cannot fire accidentally.
  if (opts_.buggy_vote_threshold && threshold > 1) return threshold - 1;
  return threshold;
}

std::string CommitteePeer::status() const {
  if (terminated()) return "terminated";
  if (!started_) return "not started";
  std::ostringstream os;
  os << "decided " << decided_count_ << "/" << n() << " bits, votes "
     << (votes_sent_ ? "sent" : "NOT sent")
     << "; waiting for committee votes on the undecided bits";
  return os.str();
}

void CommitteePeer::decide(std::size_t bit, bool value) {
  if (decided_[bit]) return;
  decided_[bit] = true;
  ++decided_count_;
  out_.set(bit, value);
}

void CommitteePeer::maybe_finish() {
  if (!terminated() && votes_sent_ && decided_count_ == n()) finish(out_);
}

}  // namespace asyncdr::proto
