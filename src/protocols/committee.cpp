#include "dr/world.hpp"
#include "protocols/committee.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace asyncdr::proto {

CommitteeAssignment::CommitteeAssignment(std::size_t n, std::size_t k,
                                         std::size_t t)
    : n_(n),
      k_(k),
      t_(t),
      c_(2 * t + 1),
      gcd_(std::gcd(c_, k)),
      period_(k / gcd_) {
  ASYNCDR_EXPECTS_MSG(c_ <= k_,
                      "committee protocol needs beta < 1/2 (2t+1 <= k)");
  ASYNCDR_EXPECTS_MSG(threshold() <= std::numeric_limits<std::uint16_t>::max(),
                      "vote counters are 16-bit: t+1 must fit");
}

bool CommitteeAssignment::is_member(sim::PeerId p, std::size_t bit) const {
  ASYNCDR_EXPECTS(p < k_ && bit < n_);
  return ((p + k_ - (bit * c_) % k_) % k_) < c_;
}

std::size_t CommitteeAssignment::load_of(sim::PeerId p) const {
  std::size_t load = (n_ / period_) * (c_ / gcd_);
  for_each_member_residue(p, n_ % period_, [&](std::size_t) { ++load; });
  return load;
}

std::vector<std::size_t> CommitteeAssignment::bits_of(sim::PeerId p) const {
  std::vector<std::size_t> bits(load_of(p));
  for_each_bit_of(p, [&](std::size_t bit, std::size_t j) { bits[j] = bit; });
  return bits;
}

std::vector<sim::PeerId> CommitteeAssignment::members_of(std::size_t bit) const {
  ASYNCDR_EXPECTS(bit < n_);
  std::vector<sim::PeerId> members;
  members.reserve(c_);
  for (std::size_t i = 0; i < c_; ++i) members.push_back((bit * c_ + i) % k_);
  return members;
}

namespace committee {

Tally::Tally(CommitteeAssignment assignment, std::size_t threshold)
    : assignment_(assignment),
      threshold_(threshold),
      out_(assignment.n()),
      decided_(assignment.n()),
      counts_(2 * assignment.n(), 0),
      heard_(assignment.k(), false) {
  ASYNCDR_EXPECTS(threshold >= 1 && threshold <= assignment.threshold());
}

bool Tally::add(sim::PeerId from, const BitVec& values) {
  if (from >= heard_.size() || heard_[from]) return false;
  if (values.size() != assignment_.load_of(from)) return false;
  heard_[from] = true;
  const std::size_t threshold = threshold_;
  std::uint16_t* const counts = counts_.data();
  assignment_.for_each_bit_of(from, [&](std::size_t bit, std::size_t j) {
    if (decided_.get(bit)) return;
    const std::size_t value = values.get(j) ? 1 : 0;
    if (++counts[2 * bit + value] >= threshold) decide(bit, value != 0);
  });
  return true;
}

void Tally::decide(std::size_t bit, bool value) {
  if (decided_.get(bit)) return;
  decided_.set(bit, true);
  ++decided_count_;
  out_.set(bit, value);
}

}  // namespace committee

void CommitteePeer::on_start() {
  init();
  begin_phase("committee-query+vote");
  // Query every bit of my committees; my own queries are ground truth, so
  // those bits decide immediately.
  const std::vector<std::size_t> mine = tally_->assignment().bits_of(id());
  const BitVec values = query_indices(mine);
  for (std::size_t j = 0; j < mine.size(); ++j) {
    tally_->decide(mine[j], values.get(j));
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
  tally_->add(from, votes->values);
  maybe_finish();
}

void CommitteePeer::init() {
  if (tally_ != nullptr) return;
  const CommitteeAssignment assignment(n(), k(),
                                       world().config().max_faulty());
  std::size_t threshold = assignment.threshold();
  // The injected off-by-one: t votes suffice, so t colluding liars can
  // decide a bit. Guarded so the bug cannot fire accidentally.
  if (opts_.buggy_vote_threshold && threshold > 1) --threshold;
  tally_ = std::make_unique<committee::Tally>(assignment, threshold);
}

std::string CommitteePeer::status() const {
  if (terminated()) return "terminated";
  if (tally_ == nullptr) return "not started";
  std::ostringstream os;
  os << "decided " << tally_->decided_count() << "/" << n() << " bits, votes "
     << (votes_sent_ ? "sent" : "NOT sent")
     << "; waiting for committee votes on the undecided bits";
  return os.str();
}

void CommitteePeer::maybe_finish() {
  if (!terminated() && votes_sent_ && tally_->decided_count() == n()) {
    finish(tally_->out());
  }
}

}  // namespace asyncdr::proto
