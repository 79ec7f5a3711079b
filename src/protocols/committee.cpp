#include "dr/world.hpp"
#include "protocols/committee.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <sstream>

#include "common/check.hpp"
#include "obs/mem.hpp"

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

std::vector<Interval> CommitteeAssignment::runs_of(sim::PeerId p) const {
  std::vector<Interval> runs(load_of(p));
  for_each_bit_of(p, [&](std::size_t bit, std::size_t j) {
    runs[j] = Interval{bit, bit + 1};
  });
  return runs;
}

namespace committee {
namespace {

constexpr std::size_t kLanes = 64;

/// Transposes a 64x64 bit matrix in place as far as its first `count` rows
/// go: bit c of row r moves to bit r of row c, for c < count. Swaps the
/// off-diagonal blocks at each scale j = 32 down to 1; while j >= count,
/// the rows from j up are never read again, so only the low block moves.
void transpose64(std::array<std::uint64_t, kLanes>& rows, std::size_t count) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;  // the columns with bit j clear
  std::size_t live = kLanes;                   // rows still to be read
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    if (j >= count) {
      for (std::size_t r = 0; r < j; ++r) {
        rows[r] = (rows[r] & mask) | ((rows[r | j] & mask) << j);
      }
      live = j;
      continue;
    }
    for (std::size_t r = 0; r < live; r = ((r | j) + 1) & ~j) {
      const std::uint64_t swap = ((rows[r] >> j) ^ rows[r | j]) & mask;
      rows[r | j] ^= swap;
      rows[r] ^= swap << j;
    }
  }
}

}  // namespace

Tally::Tally(CommitteeAssignment assignment, std::size_t threshold)
    : assignment_(assignment),
      threshold_(threshold),
      planes_(static_cast<std::size_t>(std::bit_width(threshold))),
      blocks_(((assignment.n() + assignment.period() - 1) /
                   assignment.period() +
               kLanes - 1) /
              kLanes),
      word_size_(1 + 2 * planes_),
      lanes_(std::min(assignment.period(), assignment.n()) * blocks_ *
                 word_size_,
             0),
      out_(assignment.n()),
      heard_(assignment.k()) {
  ASYNCDR_EXPECTS(threshold >= 1 && threshold <= assignment.threshold());
  const std::size_t n = assignment.n();
  const std::size_t period = assignment.period();
  for (std::size_t s = 0; s < std::min(period, n); ++s) {
    const std::size_t periods = n / period + (s < n % period ? 1 : 0);
    for (std::size_t b = 0; b < blocks_; ++b) {
      const std::size_t first = b * kLanes;
      if (periods >= first + kLanes) continue;
      const std::size_t valid = periods > first ? periods - first : 0;
      *word(s, b) = ~std::uint64_t{0} << valid;
    }
  }
}

bool Tally::add(sim::PeerId from, const BitVec& values) {
  if (from >= heard_.size() || heard_.get(from)) return false;
  if (values.size() != assignment_.load_of(from)) return false;
  heard_.set(from, true);
  // Rank r of period m is bit m*R + r of the vector; the sender's residues
  // go in column blocks of up to 64 ranks.
  std::array<std::size_t, kLanes> residues{};
  std::size_t count = 0;
  std::size_t first_rank = 0;
  assignment_.for_each_member_residue(
      from, std::min(assignment_.period(), assignment_.n()),
      [&](std::size_t s) {
        residues[count++] = s;
        if (count == kLanes) {
          add_block(values, first_rank, residues.data(), count);
          first_rank += count;
          count = 0;
        }
      });
  if (count > 0) add_block(values, first_rank, residues.data(), count);
  return true;
}

void Tally::add_block(const BitVec& values, std::size_t first_rank,
                      const std::size_t* residues, std::size_t count) {
  const std::size_t ranks = assignment_.residues_per_period();
  for (std::size_t b = 0; b < blocks_; ++b) {
    std::array<std::uint64_t, kLanes> undecided{};
    std::uint64_t live = 0;
    for (std::size_t r = 0; r < count; ++r) {
      undecided[r] = ~*word(residues[r], b);
      live |= undecided[r];
    }
    if (live == 0) continue;  // every bit of the block is decided
    // Row i: the ranks' votes in period 64b + i, loaded from the first to
    // the last lane live in some rank (those periods are inside the
    // vector). Bits of other ranks or periods land in columns >= count,
    // which are not read.
    std::array<std::uint64_t, kLanes> rows{};
    const auto last = static_cast<std::size_t>(std::bit_width(live));
    std::size_t pos = (b * kLanes) * ranks + first_rank;
    for (std::size_t i = 0; i < last; ++i, pos += ranks) {
      rows[i] = values.load_bits(pos);
    }
    transpose64(rows, count);
    for (std::size_t r = 0; r < count; ++r) {
      if (undecided[r] == 0) continue;
      count_word(residues[r], b, rows[r] & undecided[r],
                 ~rows[r] & undecided[r]);
    }
  }
}

std::uint64_t Tally::increment(std::uint64_t* planes,
                               std::uint64_t lanes) const {
  // Ripple-carry add, then compare each plane with the threshold's bit.
  std::uint64_t carry = lanes;
  std::uint64_t reached = lanes;
  for (std::size_t p = 0; p < planes_; ++p) {
    const std::uint64_t plane = planes[p] ^ carry;
    carry &= planes[p];
    planes[p] = plane;
    const std::uint64_t want = std::uint64_t{0} - ((threshold_ >> p) & 1);
    reached &= ~(plane ^ want);
  }
  return reached;
}

void Tally::count_word(std::size_t s, std::size_t block, std::uint64_t ones,
                       std::uint64_t zeros) {
  std::uint64_t* const w = word(s, block);
  const std::uint64_t decided_one = increment(w + 1 + planes_, ones);
  const std::uint64_t decided = decided_one | increment(w + 1, zeros);
  if (decided == 0) return;
  w[0] |= decided;
  decided_count_ += static_cast<std::size_t>(std::popcount(decided));
  const std::size_t period = assignment_.period();
  for (std::uint64_t lane = decided_one; lane != 0; lane &= lane - 1) {
    const auto m = block * kLanes +
                   static_cast<std::size_t>(std::countr_zero(lane));
    out_.set(s + m * period, true);
  }
}

void Tally::decide(std::size_t bit, bool value) {
  ASYNCDR_EXPECTS(bit < out_.size());
  const std::size_t period = assignment_.period();
  const std::size_t m = bit / period;
  std::uint64_t& decided = *word(bit % period, m / kLanes);
  const std::uint64_t lane = std::uint64_t{1} << (m % kLanes);
  if ((decided & lane) != 0) return;
  decided |= lane;
  ++decided_count_;
  out_.set(bit, value);
}

std::uint64_t Tally::memory_bytes() const {
  using obs::modeled_alloc_bytes;
  return modeled_alloc_bytes(lanes_.capacity() * sizeof(std::uint64_t)) +
         modeled_alloc_bytes(out_.memory_bytes()) +
         modeled_alloc_bytes(heard_.memory_bytes());
}

}  // namespace committee

void CommitteePeer::on_start() {
  init();
  begin_phase("committee-query+vote");
  // Query every bit of my committees; my own queries are ground truth, so
  // those bits decide immediately.
  const std::vector<Interval> mine = tally_->assignment().runs_of(id());
  const BitVec values = query_runs(mine);
  for (std::size_t j = 0; j < mine.size(); ++j) {
    tally_->decide(mine[j].lo, values.get(j));
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

std::size_t CommitteePeer::memory_bytes() const {
  std::uint64_t bytes = dr::Peer::memory_bytes();
  if (tally_ != nullptr) {
    bytes += obs::modeled_alloc_bytes(sizeof(committee::Tally)) +
             tally_->memory_bytes();
  }
  return static_cast<std::size_t>(bytes);
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
