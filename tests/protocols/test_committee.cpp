#include "protocols/committee.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "protocols/bounds.hpp"
#include "support/committee.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

TEST(CommitteeAssignment, RoundRobinStructure) {
  const CommitteeAssignment a(/*n=*/10, /*k=*/7, /*t=*/2);
  EXPECT_EQ(a.committee_size(), 5u);
  EXPECT_EQ(a.threshold(), 3u);
  for (std::size_t bit = 0; bit < 10; ++bit) {
    const auto members = support::members_of(a, bit);
    ASSERT_EQ(members.size(), 5u);
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      EXPECT_TRUE(support::is_member(a, members[pos], bit));
      EXPECT_EQ(members[pos], (bit * 5 + pos) % 7);
    }
  }
}

TEST(CommitteeAssignment, BitsOfMatchesMembership) {
  const CommitteeAssignment a(64, 9, 3);
  for (sim::PeerId p = 0; p < 9; ++p) {
    for (std::size_t bit : a.bits_of(p)) {
      EXPECT_TRUE(support::is_member(a, p, bit));
    }
  }
  // Every committee slot is covered by exactly one peer position.
  std::size_t total = 0;
  for (sim::PeerId p = 0; p < 9; ++p) total += a.bits_of(p).size();
  EXPECT_EQ(total, 64u * 7u);
}

TEST(CommitteeAssignment, BitsOfMatchesBruteForce) {
  struct Shape {
    std::size_t n, k, t;
  };
  // Period P = k / gcd(2t+1, k): gcd > 1 (k=10, t=2: P=2; k=9, t=1: P=3),
  // n < P, n not a multiple of P, n = 0 and t = 0 (c = 1, P = k).
  const std::vector<Shape> shapes{
      {64, 10, 2}, {65, 10, 2}, {1, 10, 2},     {40, 9, 1},
      {41, 9, 4},  {3, 96, 5},  {100, 96, 5},   {1000, 96, 47},
      {50, 7, 0},  {0, 7, 3},   {17, 1, 0},     {333, 15, 7},
      {256, 12, 1}, {255, 21, 10}};
  for (const Shape& sh : shapes) {
    const CommitteeAssignment a(sh.n, sh.k, sh.t);
    for (sim::PeerId p = 0; p < sh.k; ++p) {
      std::vector<std::size_t> want;
      for (std::size_t j = 0; j < sh.n; ++j) {
        if (support::is_member(a, p, j)) want.push_back(j);
      }
      EXPECT_EQ(a.bits_of(p), want)
          << "n=" << sh.n << " k=" << sh.k << " t=" << sh.t << " p=" << p;
      EXPECT_EQ(a.load_of(p), want.size());
      std::vector<Interval> unit;
      for (std::size_t bit : want) unit.push_back(Interval{bit, bit + 1});
      EXPECT_EQ(a.runs_of(p), unit)
          << "n=" << sh.n << " k=" << sh.k << " t=" << sh.t << " p=" << p;
    }
  }
}

TEST(CommitteeAssignment, LoadIsBalancedWithinOne) {
  const CommitteeAssignment a(1000, 11, 4);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (sim::PeerId p = 0; p < 11; ++p) {
    const std::size_t load = a.bits_of(p).size();
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(CommitteeAssignment, RejectsMajorityByzantine) {
  EXPECT_THROW(CommitteeAssignment(10, 8, 4), contract_violation);  // 2t+1 > k
}

TEST(Committee, FaultFreeCorrect) {
  Scenario s;
  s.cfg = cfg(2048, 12, 0.25);
  s.honest = make_committee();
  const auto report = expect_ok(s, "fault-free");
  EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
}

TEST(Committee, ZeroFaultDegeneratesToSharing) {
  Scenario s;
  s.cfg = cfg(1024, 8, 0.0);
  s.honest = make_committee();
  const auto report = expect_ok(s, "t=0");
  EXPECT_EQ(report.query_complexity, 128u);  // committees of size 1
}

TEST(Committee, QueryBoundIsTwoBetaNPlusNOverK) {
  const auto c = cfg(4096, 16, 0.25);
  // c = 2*4+1 = 9 -> Q <= ceil(4096*9/16)+1 = 2305.
  EXPECT_EQ(bounds::committee_q(c), 2305u);
}

// Attack sweep: every Byzantine behaviour in the library, at max t.
class CommitteeAttack : public ::testing::TestWithParam<int> {};

TEST_P(CommitteeAttack, CorrectUnderAttack) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s;
    s.cfg = cfg(1024, 13, 0.3, seed);  // t = 3, c = 7
    s.honest = make_committee();
    switch (GetParam()) {
      case 0: s.byzantine = make_silent_byz(); break;
      case 1: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll); break;
      case 2: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kRandom); break;
      case 3: s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kEquivocate); break;
      case 4: s.byzantine = make_garbage_byz(); break;
    }
    s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty(), seed);
    const auto report = expect_ok(s, "attack");
    EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Attacks, CommitteeAttack, ::testing::Values(0, 1, 2, 3, 4));

TEST(Committee, AdversarialSchedulingWithLiars) {
  Scenario s;
  s.cfg = cfg(512, 9, 0.4, 4);  // t = 3, c = 7
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = {1, 4, 8};
  s.latency = seniority_latency();
  expect_ok(s, "liars + seniority scheduling");
}

TEST(Committee, StaggeredStarts) {
  Scenario s;
  s.cfg = cfg(512, 9, 0.2, 5);
  s.honest = make_committee();
  s.byzantine = make_silent_byz();
  s.byz_ids = {2};
  s.start_times[0] = 10.0;
  s.start_times[5] = 4.0;
  expect_ok(s, "staggered starts");
}

TEST(Committee, BetaHalfRejected) {
  Scenario s;
  s.cfg = cfg(64, 8, 0.5);
  s.honest = make_committee();
  EXPECT_THROW(run_scenario(s), contract_violation);
}

// ---- Vote dedup: a member's votes count once. ----
//
// Peer 0 is the CommitteePeer under test; peers 1-4 are scripted voters
// that send peer 0 a fixed sequence of Votes and nothing else. With k = 5
// and t = 1 (c = 3, threshold 2) the committees peer 0 is not on are
// {1,2,3} and {2,3,4}, so every one of its outside bits hinges on two
// matching votes. The scripts go beyond the fault budget on purpose: they
// test the receiver's counting rule, not the protocol's guarantee.
enum class Vote { kTruth, kLie, kMalformed };

class ScriptedVoter final : public dr::Peer {
 public:
  explicit ScriptedVoter(std::vector<Vote> script)
      : script_(std::move(script)) {}

  void on_start() override {
    const CommitteeAssignment assignment(n(), k(),
                                         world().config().max_faulty());
    const BitVec truth = query_runs(assignment.runs_of(id()));
    BitVec lie = truth;
    for (std::size_t j = 0; j < lie.size(); ++j) lie.flip(j);
    for (const Vote v : script_) {
      BitVec values = v == Vote::kTruth ? truth
                      : v == Vote::kLie ? lie
                                        : BitVec(truth.size() + 1);
      send(0, std::make_shared<committee::Votes>(std::move(values)));
    }
  }

 protected:
  void on_message(sim::PeerId, const sim::Payload&) override {}

 private:
  std::vector<Vote> script_;
};

struct DedupOutcome {
  bool terminated = false;
  bool correct = false;
};

/// Runs the five-peer world with peer p+1 following scripts[p]; messages of
/// `slow` senders take 10 time units, the rest 0.01.
DedupOutcome run_dedup(const std::vector<std::vector<Vote>>& scripts,
                       std::vector<sim::PeerId> slow) {
  Scenario s;
  s.cfg = cfg(64, 5, 0.2);
  s.honest = [scripts](const dr::Config&,
                       sim::PeerId id) -> std::unique_ptr<dr::Peer> {
    if (id == 0) return std::make_unique<CommitteePeer>();
    return std::make_unique<ScriptedVoter>(scripts.at(id - 1));
  };
  s.latency = sender_delay_latency(std::move(slow), 10.0, 0.01);
  DedupOutcome outcome;
  s.post_run = [&](dr::World& world, const dr::RunReport&) {
    const dr::Peer& receiver = world.peer(0);
    outcome.terminated = receiver.terminated();
    outcome.correct = receiver.output() == world.source().data();
  };
  run_scenario(s);
  return outcome;
}

TEST(CommitteeDedup, DuplicatedVotesCountOnce) {
  // Peer 1's lie arrives twice before any truth: counted twice it would
  // reach the threshold on {1,2,3}'s bits.
  const DedupOutcome out = run_dedup({{Vote::kLie, Vote::kLie},
                                      {Vote::kTruth},
                                      {Vote::kTruth},
                                      {Vote::kTruth}},
                                     {2, 3, 4});
  EXPECT_TRUE(out.terminated);
  EXPECT_TRUE(out.correct);
}

TEST(CommitteeDedup, MalformedVotesDoNotSilenceTheSender) {
  // Peer 3 is silent, so {1,2,3}'s bits need peer 1's well-formed vector,
  // which follows a malformed one.
  const DedupOutcome out = run_dedup(
      {{Vote::kMalformed, Vote::kTruth}, {Vote::kTruth}, {}, {Vote::kTruth}},
      {});
  EXPECT_TRUE(out.terminated);
  EXPECT_TRUE(out.correct);
}

TEST(CommitteeDedup, SecondDifferentVectorIsIgnored) {
  // Peer 1 votes the truth, then changes its mind; with peer 2's lie the
  // second vector would reach the threshold before peer 3's truth.
  const DedupOutcome out = run_dedup({{Vote::kTruth, Vote::kLie},
                                      {Vote::kLie},
                                      {Vote::kTruth},
                                      {Vote::kTruth}},
                                     {3, 4});
  EXPECT_TRUE(out.terminated);
  EXPECT_TRUE(out.correct);
}

// ---- The tally against a per-bit reference. ----

/// The counting rule spelt out per bit from support::is_member: a sender's
/// first vector of the right length counts on every undecided bit of its
/// committees, and a bit decides on the first value to reach the threshold.
struct ReferenceTally {
  ReferenceTally(const CommitteeAssignment& a, std::size_t n, std::size_t k,
                 std::size_t threshold)
      : a(a), n(n), threshold(threshold), counts(2 * n, 0),
        decided(n, false), out(n), heard(k, false) {}

  bool add(sim::PeerId from, const BitVec& values) {
    if (from >= heard.size() || heard[from]) return false;
    std::vector<std::size_t> bits;
    for (std::size_t b = 0; b < n; ++b) {
      if (support::is_member(a, from, b)) bits.push_back(b);
    }
    if (values.size() != bits.size()) return false;
    heard[from] = true;
    for (std::size_t j = 0; j < bits.size(); ++j) {
      if (decided[bits[j]]) continue;
      const bool value = values.get(j);
      if (++counts[2 * bits[j] + (value ? 1 : 0)] >= threshold) {
        decide(bits[j], value);
      }
    }
    return true;
  }

  void decide(std::size_t bit, bool value) {
    if (decided[bit]) return;
    decided[bit] = true;
    ++decided_count;
    out.set(bit, value);
  }

  const CommitteeAssignment& a;
  std::size_t n, threshold;
  std::vector<std::size_t> counts;
  std::vector<bool> decided;
  BitVec out;
  std::vector<bool> heard;
  std::size_t decided_count = 0;
};

TEST(CommitteeTally, MatchesPerBitReferenceInAnyArrivalOrder) {
  struct Shape {
    std::size_t n, k, t;
    std::size_t trials;  ///< minimum; every threshold below gets one
  };
  // P = k / gcd(2t+1, k): 13, 2, 5, 1 (c = k) and Table 1's k = 96, with n
  // both a multiple of P and not. Then Table 1's full shape (171 periods:
  // three lane words, the last partial), c = 81 > 64 (two column blocks of
  // ranks), and n < P (one period, residues below n only).
  const std::vector<Shape> shapes{
      {200, 13, 3, 6},    {97, 10, 2, 6},     {64, 5, 1, 6},
      {50, 7, 3, 6},      {1000, 96, 12, 6},  {33, 15, 7, 6},
      {16384, 96, 12, 1}, {3000, 200, 40, 1}, {50, 96, 12, 1}};
  Rng rng(99);
  for (const Shape& sh : shapes) {
    const CommitteeAssignment a(sh.n, sh.k, sh.t);
    // t + 1, t, and every plane edge 2^p - 1, 2^p up to t + 1 (1 included).
    std::vector<std::size_t> thresholds{a.threshold(),
                                        std::max<std::size_t>(1, sh.t)};
    for (std::size_t edge = 2; edge <= a.threshold(); edge *= 2) {
      for (std::size_t th : {edge - 1, edge}) {
        if (std::find(thresholds.begin(), thresholds.end(), th) ==
            thresholds.end()) {
          thresholds.push_back(th);
        }
      }
    }
    const std::size_t trials = std::max(sh.trials, thresholds.size());
    for (std::size_t trial = 0; trial < trials; ++trial) {
      SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " k=" << sh.k
                                        << " t=" << sh.t << " trial=" << trial);
      const BitVec truth = BitVec::generate(sh.n, [&] { return rng.flip(); });
      // Honest, liar, random, duplicated and wrong-length vectors.
      std::vector<std::pair<sim::PeerId, BitVec>> arrivals;
      for (sim::PeerId p = 0; p < sh.k; ++p) {
        BitVec honest;
        for (std::size_t b : a.bits_of(p)) honest.push_back(truth.get(b));
        BitVec lie = honest;
        for (std::size_t j = 0; j < lie.size(); ++j) lie.flip(j);
        const BitVec noise =
            BitVec::generate(honest.size(), [&] { return rng.flip(); });
        const std::size_t kind = rng.below(3);
        arrivals.emplace_back(p, kind == 0 ? honest : kind == 1 ? lie : noise);
        if (rng.flip(0.3)) arrivals.emplace_back(p, honest);
        if (rng.flip(0.3)) arrivals.emplace_back(p, lie);
        if (rng.flip(0.3)) {
          arrivals.emplace_back(p, BitVec(honest.size() + 1, true));
        }
        if (rng.flip(0.2) && !honest.empty()) {
          arrivals.emplace_back(p, BitVec(honest.size() - 1));
        }
      }
      arrivals.emplace_back(sh.k, BitVec(1));  // sender id out of range
      rng.shuffle(arrivals);

      const std::size_t threshold = thresholds[trial % thresholds.size()];
      committee::Tally tally(a, threshold);
      ReferenceTally ref(a, sh.n, sh.k, threshold);
      if (trial % 3 == 0) {
        // A receiver's own queries decide its bits up front.
        const auto self = static_cast<sim::PeerId>(rng.below(sh.k));
        for (std::size_t b : a.bits_of(self)) {
          tally.decide(b, truth.get(b));
          ref.decide(b, truth.get(b));
        }
      }
      for (const auto& [from, values] : arrivals) {
        ASSERT_EQ(tally.add(from, values), ref.add(from, values));
        ASSERT_EQ(tally.out(), ref.out);
        ASSERT_EQ(tally.decided_count(), ref.decided_count);
      }
    }
  }
}

TEST(CommitteeTally, WideThresholdDecidesOnItsLastVote) {
  // k = c = 2^17 - 1: P = 1, every peer sits on every bit, and the
  // threshold t + 1 = 2^16 takes 17 counter planes.
  EXPECT_NO_THROW(CommitteeAssignment(16, 1 << 18, (1 << 17) - 1));
  const CommitteeAssignment a(16, 131071, 65535);
  ASSERT_EQ(a.threshold(), 65536u);
  committee::Tally tally(a, a.threshold());
  const BitVec ones(16, true);
  const BitVec zeros(16);
  BitVec split(16);  // 1 on bits 0..7, 0 on bits 8..15
  for (std::size_t b = 0; b < 8; ++b) split.set(b, true);

  sim::PeerId from = 0;
  for (; from < 65535; ++from) ASSERT_TRUE(tally.add(from, ones));
  EXPECT_EQ(tally.decided_count(), 0u);
  // The 65536th vote for 1 decides bits 0..7, and only those.
  ASSERT_TRUE(tally.add(from++, split));
  EXPECT_EQ(tally.decided_count(), 8u);
  EXPECT_EQ(tally.out(), split);
  // Bits 8..15 hold 65535 votes for 1 and one for 0; 65535 more for 0
  // decide them on the last.
  for (; from < 131070; ++from) ASSERT_TRUE(tally.add(from, zeros));
  EXPECT_EQ(tally.decided_count(), 8u);
  ASSERT_TRUE(tally.add(from, zeros));
  EXPECT_EQ(tally.decided_count(), 16u);
  EXPECT_EQ(tally.out(), split);

  const CommitteeAssignment small(16, 9, 2);
  EXPECT_THROW(committee::Tally(small, 0), contract_violation);
  EXPECT_THROW(committee::Tally(small, small.threshold() + 1),
               contract_violation);
}

TEST(CommitteeTally, PeerStateChargesEveryHonestTally) {
  Scenario s;
  s.cfg = cfg(2048, 12, 0.25, 5);
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
  std::uint64_t peak = 0;
  s.post_run = [&](dr::World& world, const dr::RunReport&) {
    for (const obs::MemPoolStats& p : world.mem().snapshot()) {
      if (p.name == "dr.peer.state") peak = p.peak;
    }
  };
  expect_ok(s, "mem");
  // Every honest peer builds the same tally at its start and keeps it.
  const CommitteeAssignment a(s.cfg.n, s.cfg.k, s.cfg.max_faulty());
  const committee::Tally one(a, a.threshold());
  const std::uint64_t honest = s.cfg.k - s.byz_ids.size();
  EXPECT_GE(peak, honest * one.memory_bytes());
  EXPECT_GT(one.memory_bytes(), 0u);
}

// Beta sweep under the strongest liar.
class CommitteeBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(CommitteeBetaSweep, CorrectForAllMinorityBeta) {
  Scenario s;
  s.cfg = cfg(1024, 16, GetParam(), 21);
  s.honest = make_committee();
  s.byzantine = make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
  s.byz_ids = pick_faulty(s.cfg, s.cfg.max_faulty());
  const auto report = expect_ok(s, "beta sweep");
  EXPECT_LE(report.query_complexity, bounds::committee_q(s.cfg));
}

INSTANTIATE_TEST_SUITE_P(Betas, CommitteeBetaSweep,
                         ::testing::Values(0.05, 0.125, 0.25, 0.375, 0.45));

}  // namespace
}  // namespace asyncdr::proto
