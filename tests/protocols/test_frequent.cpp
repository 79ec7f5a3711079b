#include "protocols/frequent.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "support/bits.hpp"

namespace asyncdr::proto {
namespace {

using support::from_string;

TEST(StringBank, CountsDistinctSupporters) {
  StringBank bank(2);
  const BitVec a = from_string("101");
  const BitVec b = from_string("111");
  EXPECT_TRUE(bank.record(0, 1, a));
  EXPECT_TRUE(bank.record(0, 2, a));
  EXPECT_TRUE(bank.record(0, 3, b));
  EXPECT_EQ(bank.votes(0), 3u);
  EXPECT_EQ(bank.distinct(0), 2u);
  EXPECT_EQ(bank.support(0, a), 2u);
  EXPECT_EQ(bank.support(0, b), 1u);
  EXPECT_EQ(bank.support(0, from_string("000")), 0u);
  EXPECT_EQ(bank.votes(1), 0u);
}

TEST(StringBank, OneVotePerPeerPerSegment) {
  StringBank bank(1);
  const BitVec a = from_string("0");
  const BitVec b = from_string("1");
  EXPECT_TRUE(bank.record(0, 7, a));
  // Re-votes (even with a different value) are ignored — vote stacking by a
  // single Byzantine peer is impossible.
  EXPECT_FALSE(bank.record(0, 7, b));
  EXPECT_FALSE(bank.record(0, 7, a));
  EXPECT_EQ(bank.votes(0), 1u);
  EXPECT_EQ(bank.support(0, a), 1u);
  EXPECT_EQ(bank.support(0, b), 0u);
}

TEST(StringBank, FrequentThreshold) {
  StringBank bank(1);
  const BitVec a = from_string("00");
  const BitVec b = from_string("01");
  for (sim::PeerId p = 0; p < 5; ++p) bank.record(0, p, a);
  for (sim::PeerId p = 5; p < 7; ++p) bank.record(0, p, b);

  EXPECT_EQ(bank.frequent(0, 6).size(), 0u);
  const auto at5 = bank.frequent(0, 5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0], a);
  EXPECT_EQ(bank.frequent(0, 2).size(), 2u);
  EXPECT_EQ(bank.frequent(0, 1).size(), 2u);
}

TEST(StringBank, FrequentOrderIsDeterministic) {
  StringBank bank(1);
  bank.record(0, 0, from_string("10"));
  bank.record(0, 1, from_string("01"));
  const auto f = bank.frequent(0, 1);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].to_string(), "01");
  EXPECT_EQ(f[1].to_string(), "10");
}

TEST(StringBank, SegmentsIndependent) {
  StringBank bank(3);
  bank.record(0, 1, from_string("1"));
  bank.record(2, 1, from_string("0"));
  EXPECT_EQ(bank.votes(0), 1u);
  EXPECT_EQ(bank.votes(1), 0u);
  EXPECT_EQ(bank.votes(2), 1u);
}

TEST(StringBank, CountsMatchReferenceMultiset) {
  // Random reports (re-votes and unseen peers included) against a reference
  // that keeps each segment's first report per peer.
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t segments = 1 + rng.below(4);
    StringBank bank(segments);
    std::vector<std::map<sim::PeerId, std::string>> first(segments);
    for (int report = 0; report < 300; ++report) {
      const auto seg = static_cast<std::size_t>(rng.below(segments));
      const auto from = static_cast<sim::PeerId>(rng.below(40));
      const BitVec value = BitVec::generate(2, [&] { return rng.flip(0.3); });
      const bool fresh = first[seg].emplace(from, value.to_string()).second;
      EXPECT_EQ(bank.record(seg, from, value), fresh);
    }
    for (std::size_t seg = 0; seg < segments; ++seg) {
      std::map<std::string, std::size_t> support;
      for (const auto& [peer, value] : first[seg]) ++support[value];
      EXPECT_EQ(bank.votes(seg), first[seg].size());
      EXPECT_EQ(bank.distinct(seg), support.size());
      for (const char* value : {"00", "01", "10", "11"}) {
        const auto it = support.find(value);
        EXPECT_EQ(bank.support(seg, from_string(value)),
                  it == support.end() ? 0u : it->second);
      }
      for (std::size_t tau = 1; tau <= 12; ++tau) {
        std::vector<std::string> want, got;
        for (const auto& [value, count] : support) {
          if (count >= tau) want.push_back(value);
        }
        for (const BitVec& v : bank.frequent(seg, tau)) {
          got.push_back(v.to_string());
        }
        EXPECT_EQ(got, want) << "seg " << seg << " tau " << tau;
      }
    }
  }
}

TEST(StringBank, FrequentOrderIsRenderedStringOrder) {
  // frequent() compares words; the reference compares to_string(). Strings
  // of equal and unequal lengths around the word size, sharing prefixes:
  // truncations of a base string (proper prefixes), one-bit flips of it
  // (first difference at any position, in any word) and extensions of it.
  Rng rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t base_len = rng.below(200);
    const BitVec base =
        BitVec::generate(base_len, [&] { return rng.flip(0.5); });
    std::vector<BitVec> values{base};
    for (int v = 0; v < 24; ++v) {
      switch (rng.below(3)) {
        case 0: {
          BitVec prefix(rng.below(base_len + 1));
          prefix.copy_range(0, base, 0, prefix.size());
          values.push_back(std::move(prefix));
          break;
        }
        case 1:
          if (base_len > 0) {
            BitVec flipped = base;
            flipped.flip(rng.below(base_len));
            values.push_back(std::move(flipped));
          }
          break;
        default: {
          BitVec longer = base;
          for (std::size_t extra = 1 + rng.below(70); extra > 0; --extra) {
            longer.push_back(rng.flip(0.5));
          }
          values.push_back(std::move(longer));
        }
      }
    }
    StringBank bank(1);
    std::set<std::string> want;
    for (std::size_t p = 0; p < values.size(); ++p) {
      bank.record(0, static_cast<sim::PeerId>(p), values[p]);
      want.insert(values[p].to_string());
    }
    std::vector<std::string> got;
    for (const BitVec& v : bank.frequent(0, 1)) got.push_back(v.to_string());
    EXPECT_EQ(got, std::vector<std::string>(want.begin(), want.end()))
        << "trial " << trial;
  }
}

TEST(StringBank, RecordWithCarriedHashMatchesRecord) {
  StringBank carried(1), plain(1);
  const BitVec a = from_string("1011");
  const BitVec b = from_string("0011");
  EXPECT_TRUE(carried.record(0, 1, a, a.hash()));
  EXPECT_TRUE(carried.record(0, 2, a, a.hash()));
  EXPECT_FALSE(carried.record(0, 2, b, b.hash()));
  EXPECT_TRUE(carried.record(0, 3, b, b.hash()));
  plain.record(0, 1, a);
  plain.record(0, 2, a);
  plain.record(0, 3, b);
  EXPECT_EQ(carried.support(0, a), plain.support(0, a));
  EXPECT_EQ(carried.support(0, b), plain.support(0, b));
  EXPECT_EQ(carried.distinct(0), 2u);
  EXPECT_EQ(carried.frequent(0, 1), plain.frequent(0, 1));
}

TEST(StringBank, BoundsChecked) {
  StringBank bank(2);
  EXPECT_THROW(bank.record(2, 0, BitVec(1)), contract_violation);
  EXPECT_THROW(bank.record(0, sim::kNoPeer, BitVec(1)), contract_violation);
  EXPECT_THROW((void)bank.votes(5), contract_violation);
  EXPECT_THROW(bank.frequent(0, 0), contract_violation);
  EXPECT_THROW(StringBank(0), contract_violation);
}

}  // namespace
}  // namespace asyncdr::proto
