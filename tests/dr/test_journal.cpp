#include "dr/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"

namespace asyncdr::dr {
namespace {

constexpr std::size_t kN = 256;

/// Appends `count` random bits records through a Journal handle and returns
/// the interval set and values they claimed. Record r stays inside its own
/// 40-bit slot so records never overlap: the truncation/corruption tests
/// below compare a replayed PREFIX of the log against the written state, and
/// with overlap a dropped later record would legitimately resurface the
/// earlier record's values — indistinguishable from an over-claim.
struct WrittenState {
  IntervalSet intervals;
  BitVec bits{kN};
};

WrittenState write_random_records(Journal& j, Rng& rng, std::size_t count) {
  constexpr std::size_t kSlot = 40;
  ASYNCDR_EXPECTS(count * kSlot <= kN);
  WrittenState w;
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t len = 1 + rng.below(32);
    const std::size_t lo = r * kSlot + rng.below(kSlot - len);
    const BitVec values = BitVec::generate(len, [&] { return rng.flip(); });
    EXPECT_TRUE(j.append_bits(lo, values));
    w.intervals.insert(lo, lo + len);
    for (std::size_t i = 0; i < len; ++i) w.bits.set(lo + i, values.get(i));
  }
  return w;
}

TEST(Journal, EmptyLogReplaysToNothing) {
  const JournalReplay r = Journal::replay({}, kN);
  EXPECT_TRUE(r.intervals.empty());
  EXPECT_EQ(r.records, 0u);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.discarded_bytes, 0u);
}

TEST(Journal, BitsRoundTrip) {
  JournalStore store(1);
  Journal j(store, 0);
  BitVec values(8);
  values.set(1, true);
  values.set(6, true);
  ASSERT_TRUE(j.append_bits(40, values));

  const JournalReplay r = Journal::replay(store.log(0), kN);
  EXPECT_EQ(r.records, 1u);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.intervals, IntervalSet::of(40, 48));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r.bits.get(40 + i), values.get(i)) << "bit " << i;
  }
}

/// The bits record a per-bit encoder writes for values[from, from+count)
/// claiming [lo, lo+count): | 0xB1 | payload_len:4 LE | lo:8 LE | count:8 LE
/// | value i in bit i % 8 of byte i / 8 | crc:4 LE |.
std::vector<std::uint8_t> reference_bits_record(std::size_t lo,
                                                const BitVec& values,
                                                std::size_t from,
                                                std::size_t count) {
  const auto put = [](std::vector<std::uint8_t>& out, std::uint64_t v,
                      int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  std::vector<std::uint8_t> rec{0xB1};
  put(rec, 16 + (count + 7) / 8, 4);
  put(rec, lo, 8);
  put(rec, count, 8);
  for (std::size_t i = 0; i < count; i += 8) {
    std::uint8_t byte = 0;
    for (std::size_t b = 0; b < 8 && i + b < count; ++b) {
      if (values.get(from + i + b)) byte |= static_cast<std::uint8_t>(1u << b);
    }
    rec.push_back(byte);
  }
  put(rec, Journal::crc32(rec.data(), rec.size()), 4);
  return rec;
}

TEST(Journal, BitsRecordBytesMatchPerBitEncoder) {
  // Whole vectors and unaligned slices of every length class, appended one
  // after another: the log is exactly the per-bit encoder's records.
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    const BitVec values =
        BitVec::generate(1 + rng.below(kN - 16), [&] { return rng.flip(); });
    JournalStore store(1);
    Journal j(store, 0);
    std::vector<std::uint8_t> want;
    for (int r = 0; r < 6; ++r) {
      const std::size_t count =
          r == 0 ? values.size() : rng.below(values.size() + 1);
      const std::size_t from =
          r == 0 ? 0 : rng.below(values.size() - count + 1);
      const std::size_t lo = rng.below(kN - count + 1);
      if (r == 0) {
        ASSERT_TRUE(j.append_bits(lo, values));
      } else {
        ASSERT_TRUE(j.append_bits(lo, values, from, count));
      }
      const std::vector<std::uint8_t> rec =
          reference_bits_record(lo, values, from, count);
      want.insert(want.end(), rec.begin(), rec.end());
      ASSERT_EQ(store.log(0), want) << "seed " << seed << " record " << r;
    }
  }
}

TEST(Journal, BitsRecordSlicePreconditions) {
  JournalStore store(1);
  Journal j(store, 0);
  const BitVec values(70);
  EXPECT_THROW((void)j.append_bits(0, values, 60, 11), contract_violation);
  EXPECT_THROW((void)j.append_bits(0, values, 71, 0), contract_violation);
  EXPECT_TRUE(store.log(0).empty());
  EXPECT_TRUE(j.append_bits(0, values, 70, 0));  // an empty record is valid
}

TEST(Journal, CheckpointRoundTrip) {
  JournalStore store(1);
  Journal j(store, 0);
  ASSERT_TRUE(j.checkpoint("phase", 1));
  ASSERT_TRUE(j.checkpoint("round", 7));

  const JournalReplay r = Journal::replay(store.log(0), kN);
  EXPECT_EQ(r.records, 2u);
  ASSERT_EQ(r.checkpoints.size(), 2u);
  EXPECT_EQ(r.checkpoints[0], (std::pair<std::string, std::uint64_t>{"phase", 1}));
  EXPECT_EQ(r.checkpoints[1], (std::pair<std::string, std::uint64_t>{"round", 7}));
}

// Satellite property test: many random records, mixed with checkpoints,
// replay to exactly the written interval set and values.
TEST(Journal, PropertyRandomRecordsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    JournalStore store(1);
    Journal j(store, 0);
    Rng rng(seed);
    WrittenState w;
    const std::size_t records = 1 + rng.below(24);
    for (std::size_t r = 0; r < records; ++r) {
      if (rng.flip(0.2)) {
        ASSERT_TRUE(j.checkpoint("phase", r));
        continue;
      }
      const std::size_t len = 1 + rng.below(32);
      const std::size_t lo = rng.below(kN - len);
      const BitVec values = BitVec::generate(len, [&] { return rng.flip(); });
      ASSERT_TRUE(j.append_bits(lo, values));
      w.intervals.insert(lo, lo + len);
      for (std::size_t i = 0; i < len; ++i) w.bits.set(lo + i, values.get(i));
    }

    const JournalReplay r = Journal::replay(store.log(0), kN);
    EXPECT_FALSE(r.torn) << "seed " << seed;
    EXPECT_EQ(r.intervals, w.intervals) << "seed " << seed;
    for (std::size_t i = 0; i < kN; ++i) {
      if (w.intervals.contains(i)) {
        EXPECT_EQ(r.bits.get(i), w.bits.get(i)) << "seed " << seed
                                                << " bit " << i;
      }
    }
  }
}

/// Replay of a prefix-truncated log must (a) never crash, (b) never claim a
/// bit the surviving complete records did not commit — for EVERY cut point.
TEST(Journal, TornTailAtEveryByteBoundaryNeverOverClaims) {
  JournalStore store(1);
  Journal j(store, 0);
  Rng rng(42);
  const WrittenState w = write_random_records(j, rng, 6);
  const std::vector<std::uint8_t> full = store.log(0);
  const JournalReplay whole = Journal::replay(full, kN);
  ASSERT_EQ(whole.intervals, w.intervals);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    const JournalReplay r = Journal::replay(prefix, kN);
    // No over-claim: everything recovered was genuinely written.
    IntervalSet extra = r.intervals;
    extra.subtract(w.intervals);
    EXPECT_TRUE(extra.empty()) << "cut at " << cut;
    // A mid-record cut is flagged torn; re-replaying just the verified
    // prefix must agree (self-consistency of the discarded_bytes report).
    if (r.torn) {
      ASSERT_GT(r.discarded_bytes, 0u);
      ASSERT_LE(r.discarded_bytes, prefix.size());
      const std::vector<std::uint8_t> verified(
          prefix.begin(), prefix.end() - static_cast<long>(r.discarded_bytes));
      const JournalReplay again = Journal::replay(verified, kN);
      EXPECT_FALSE(again.torn) << "cut at " << cut;
      EXPECT_EQ(again.intervals, r.intervals) << "cut at " << cut;
    }
    if (cut == full.size()) {
      EXPECT_EQ(r.intervals, w.intervals);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      if (r.intervals.contains(i)) {
        EXPECT_EQ(r.bits.get(i), w.bits.get(i)) << "cut " << cut
                                                << " bit " << i;
      }
    }
  }
}

/// Single-bit corruption anywhere in the log: replay must detect (drop the
/// record and everything after), never crash, never over-claim values.
TEST(Journal, BitFlipAnywhereIsDetectedNeverOverClaims) {
  JournalStore store(1);
  Journal j(store, 0);
  Rng rng(7);
  const WrittenState w = write_random_records(j, rng, 4);
  const std::vector<std::uint8_t> full = store.log(0);

  for (std::size_t bit = 0; bit < full.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = full;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const JournalReplay r = Journal::replay(corrupt, kN);  // must not throw
    // Claimed bits must carry the written values: a flip either lands in a
    // record (CRC kills that record and the rest) or past the last verified
    // one. Either way no claimed position may hold a corrupted value.
    for (std::size_t i = 0; i < kN; ++i) {
      if (r.intervals.contains(i)) {
        ASSERT_TRUE(w.intervals.contains(i)) << "flip " << bit;
        ASSERT_EQ(r.bits.get(i), w.bits.get(i)) << "flip " << bit;
      }
    }
  }
}

TEST(JournalStore, CorruptionHelpers) {
  JournalStore store(2);
  Journal j(store, 1);
  ASSERT_TRUE(j.append_bits(0, BitVec(16, true)));
  const std::size_t len = store.bytes(1);
  ASSERT_GT(len, 4u);

  store.truncate_tail(1, 2);
  EXPECT_EQ(store.bytes(1), len - 2);
  const JournalReplay torn = Journal::replay(store.log(1), kN);
  EXPECT_TRUE(torn.torn);
  EXPECT_TRUE(torn.intervals.empty());

  store.clear(1);
  EXPECT_EQ(store.bytes(1), 0u);
  store.flip_bit(1, 12345);  // no-op on empty log, must not throw
  EXPECT_EQ(store.bytes(1), 0u);
  EXPECT_EQ(store.bytes(0), 0u);  // other peers untouched throughout
}

TEST(JournalStore, TruncateMoreThanLengthClears) {
  JournalStore store(1);
  Journal j(store, 0);
  ASSERT_TRUE(j.checkpoint("phase", 1));
  store.truncate_tail(0, store.bytes(0) + 100);
  EXPECT_EQ(store.bytes(0), 0u);
}

TEST(Journal, CrashPointHookKillsMidRecordAndLeavesTornTail) {
  JournalStore store(1);
  std::vector<CrashPoint> seen;
  store.set_crash_point_hook([&](sim::PeerId id, CrashPoint point) {
    EXPECT_EQ(id, 0u);
    seen.push_back(point);
    return point == CrashPoint::kMidRecord;
  });
  Journal j(store, 0);
  ASSERT_TRUE(j.checkpoint("phase", 1));  // survives: not a kMidRecord site
  const std::size_t committed = store.bytes(0);
  EXPECT_FALSE(j.append_bits(0, BitVec(16, true)));  // killed mid-write
  EXPECT_GT(store.bytes(0), committed);  // torn bytes really on "disk"

  const JournalReplay r = Journal::replay(store.log(0), kN);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.records, 1u);  // the checkpoint
  EXPECT_TRUE(r.intervals.empty());  // the torn record claims nothing
  ASSERT_GE(seen.size(), 2u);
}

TEST(Journal, CrashPointAppendStartWritesNothing) {
  JournalStore store(1);
  store.set_crash_point_hook([](sim::PeerId, CrashPoint point) {
    return point == CrashPoint::kAppendStart;
  });
  Journal j(store, 0);
  EXPECT_FALSE(j.append_bits(0, BitVec(8, true)));
  EXPECT_EQ(store.bytes(0), 0u);
}

TEST(Journal, CrashPointAppendCommitKeepsRecordDurable) {
  JournalStore store(1);
  store.set_crash_point_hook([](sim::PeerId, CrashPoint point) {
    return point == CrashPoint::kAppendCommit;
  });
  Journal j(store, 0);
  EXPECT_FALSE(j.append_bits(4, BitVec(8, true)));  // peer dies post-commit
  const JournalReplay r = Journal::replay(store.log(0), kN);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.intervals, IntervalSet::of(4, 12));  // but the record survives
}

TEST(Journal, Crc32KnownVector) {
  // The standard check value for CRC-32/ISO-HDLC: crc32("123456789").
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Journal::crc32(data, sizeof(data)), 0xCBF43926u);
}

/// CRC-32 (reflected, polynomial 0xEDB88320) one byte at a time: the
/// reference the word-wise Journal::crc32 must match on every input.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Journal, Crc32MatchesBytewiseReference) {
  // Every length 0..300 at every start offset mod 8, so the eight-byte
  // blocks meet every alignment and every tail length.
  Rng rng(2024);
  std::vector<std::uint8_t> buf(300 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32_bytewise(data, sizeof(data)), 0xCBF43926u);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Journal::crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(JournalStore, LogAccessBoundsChecked) {
  JournalStore store(2);
  EXPECT_THROW((void)store.log(2), contract_violation);
  EXPECT_THROW(store.clear(5), contract_violation);
}

}  // namespace
}  // namespace asyncdr::dr
