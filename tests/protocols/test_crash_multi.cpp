#include "protocols/crash_multi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dr/world.hpp"
#include "harness.hpp"
#include "oracle/dynamic.hpp"
#include "protocols/bounds.hpp"
#include "protocols/segments.hpp"
#include "sim/message.hpp"
#include "sim/payload_bank.hpp"
#include "support/chunk.hpp"

namespace asyncdr::proto {
namespace {

using testing::cfg;
using testing::expect_ok;

TEST(CrashMulti, FaultFreeIsQueryOptimal) {
  Scenario s;
  s.cfg = cfg(1 << 14, 16, 0.0);
  s.honest = make_crash_multi();
  const auto report = expect_ok(s, "fault-free");
  // One phase of n/k plus no direct tail.
  EXPECT_EQ(report.query_complexity, (1u << 14) / 16);
}

TEST(CrashMulti, ToleratesMaxCrashesSilentPrefix) {
  Scenario s;
  s.cfg = cfg(1 << 13, 16, 0.5);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(8);
  const auto report = expect_ok(s, "silent prefix");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, HighBetaNinetyPercentCrashes) {
  Scenario s;
  s.cfg = cfg(1 << 13, 40, 0.9);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(36);
  const auto report = expect_ok(s, "beta=0.9");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
  // Still far below naive.
  EXPECT_LT(report.query_complexity, s.cfg.n / 2);
}

TEST(CrashMulti, StaggeredCrashesAcrossPhases) {
  Scenario s;
  s.cfg = cfg(1 << 13, 12, 0.5, 3);
  s.honest = make_crash_multi();
  Rng rng(17);
  s.crashes = adv::CrashPlan::staggered(s.cfg, rng, 6, 2.5);
  const auto report = expect_ok(s, "staggered");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, PartialBroadcastCrashes) {
  Scenario s;
  s.cfg = cfg(1 << 12, 10, 0.4, 5);
  s.honest = make_crash_multi();
  Rng rng(29);
  s.crashes = adv::CrashPlan::partial_broadcast(s.cfg, rng, 4, 3);
  expect_ok(s, "partial broadcast");
}

TEST(CrashMulti, FastCancelOffStillCorrect) {
  Scenario s;
  s.cfg = cfg(1 << 12, 10, 0.5, 6);
  s.honest = make_crash_multi({.fast_cancel = false});
  Rng rng(31);
  s.crashes = adv::CrashPlan::random(s.cfg, rng, 5, 6.0);
  const auto report = expect_ok(s, "no fast-cancel");
  EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg));
}

TEST(CrashMulti, DeterministicGivenSeed) {
  auto run_once = [] {
    Scenario s;
    s.cfg = cfg(1 << 12, 12, 0.5, 9);
    s.honest = make_crash_multi();
    Rng rng(5);
    s.crashes = adv::CrashPlan::random(s.cfg, rng, 6, 5.0);
    return run_scenario(s);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.query_complexity, b.query_complexity);
  EXPECT_EQ(a.message_complexity, b.message_complexity);
  EXPECT_DOUBLE_EQ(a.time_complexity, b.time_complexity);
  EXPECT_EQ(a.events, b.events);
}

TEST(CrashMulti, SmallInputDirectPath) {
  // n at most the direct-query threshold max(ceil(n/k), 2k): everyone just
  // queries everything in phase 1.
  Scenario s;
  s.cfg = cfg(16, 8, 0.5, 2);
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(4);
  const auto report = expect_ok(s, "small input");
  EXPECT_EQ(report.query_complexity, 16u);
}

TEST(CrashMulti, LateCrashAfterSomeTerminated) {
  // A peer that survives long enough to rescue others, then crashes.
  Scenario s;
  s.cfg = cfg(1 << 12, 8, 0.25, 11);
  s.honest = make_crash_multi();
  s.crashes.add_at_time(3, 50.0);
  s.crashes.add_at_time(5, 100.0);
  expect_ok(s, "late crash");
}

TEST(CrashMulti, StragglerStartTimes) {
  Scenario s;
  s.cfg = cfg(1 << 12, 8, 0.25, 13);
  s.honest = make_crash_multi();
  s.start_times[0] = 20.0;  // very late starter must still catch up
  s.crashes.add_at_time(7, 0.0);
  expect_ok(s, "late start");
}

TEST(CrashMulti, OptionsControlPhaseStructure) {
  // n <= 2k puts every bit under the direct threshold max(ceil(n/k), 2k),
  // so each peer takes the one-shot naive path; max_phases = 1 forces the
  // direct tail right after phase 1.
  {
    const dr::Config c = cfg(16, 8, 0.25, 4);
    dr::World world(c, random_input(c.n, c.seed));
    for (sim::PeerId id = 0; id < c.k; ++id) {
      world.set_peer(id, std::make_unique<CrashMultiPeer>());
    }
    const auto report = world.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.query_complexity, c.n);  // everyone queried everything
  }
  dr::Config c = cfg(1 << 12, 8, 0.25, 4);
  {
    dr::World world(c, random_input(c.n, c.seed));
    std::vector<CrashMultiPeer*> peers;
    for (sim::PeerId id = 0; id < c.k; ++id) {
      auto p = std::make_unique<CrashMultiPeer>(
          CrashMultiPeer::Options{.max_phases = 1});
      peers.push_back(p.get());
      world.set_peer(id, std::move(p));
    }
    world.schedule_crash_at(0, 0.0);
    world.schedule_crash_at(1, 0.0);
    const auto report = world.run();
    ASSERT_TRUE(report.ok());
    for (const auto* p : peers) EXPECT_LE(p->phases_run(), 2u);
    // Phase 1 share + the two dead blocks queried directly.
    EXPECT_LE(report.query_complexity, c.n / 8 + 2 * (c.n / 8) + 16);
  }
}

TEST(CrashMulti, PhaseDiagnosticsShrinkWithCrashes) {
  // More crashes -> more phases before the direct threshold is reached.
  auto phases_with = [](std::size_t crashes) {
    dr::Config c = cfg(1 << 14, 16, 0.75, 6);
    dr::World world(c, random_input(c.n, c.seed));
    std::vector<CrashMultiPeer*> peers;
    for (sim::PeerId id = 0; id < c.k; ++id) {
      auto p = std::make_unique<CrashMultiPeer>();
      peers.push_back(p.get());
      world.set_peer(id, std::move(p));
    }
    for (sim::PeerId id = 0; id < crashes; ++id) {
      world.schedule_crash_at(id, 0.0);
    }
    const auto report = world.run();
    EXPECT_TRUE(report.ok());
    std::size_t max_phase = 0;
    for (sim::PeerId id = crashes; id < 16; ++id) {
      max_phase = std::max(max_phase, peers[id]->phases_run());
    }
    return max_phase;
  };
  EXPECT_LT(phases_with(0), phases_with(12));
}

// ---- Owner shares against a per-bit reference. ----

/// owner[b] in phase r: the SegmentLayout block holding b in phase 1,
/// hashed_owner(b, r, k) after it.
std::vector<sim::PeerId> reference_owners(std::size_t n, std::size_t k,
                                          std::size_t r) {
  std::vector<sim::PeerId> owner(n, k);
  if (r == 1) {
    const SegmentLayout blocks(n, k);
    for (sim::PeerId q = 0; q < k; ++q) {
      const Interval block = blocks.bounds(q);
      for (std::size_t b = block.lo; b < block.hi; ++b) owner[b] = q;
    }
  } else {
    for (std::size_t b = 0; b < n; ++b) {
      owner[b] = crashm::hashed_owner(b, r, k);
    }
  }
  return owner;
}

/// The chunk's index set and values, read back by applying it to blanks.
std::pair<BitVec, BitVec> applied(const MaskChunk& chunk) {
  BitVec out(chunk.size()), known(chunk.size());
  chunk.apply_to(out, known);
  return {known, out};
}

TEST(CrashMultiOwnerLayout, SharesAndChunksMatchPerBitReference) {
  struct Shape {
    std::size_t n, k;
  };
  // n % 64 != 0, k not dividing n, n < k (empty blocks), blocks ending on
  // word edges (4096 / 16), one peer, and Table 1's shape; then seeded ones.
  std::vector<Shape> shapes{{1000, 7}, {130, 3},  {50, 64},    {5, 8},
                            {64, 64},  {4096, 16}, {77, 1},    {16384, 96}};
  Rng rng(2024);
  for (int extra = 0; extra < 6; ++extra) {
    shapes.push_back({1 + static_cast<std::size_t>(rng.below(3000)),
                      1 + static_cast<std::size_t>(rng.below(200))});
  }
  for (const Shape& sh : shapes) {
    crashm::OwnerLayout layout(sh.n, sh.k);
    const BitVec known(sh.n, true);
    // Hashed phases out of order: each is built on first use.
    for (const std::size_t r : {std::size_t{1}, std::size_t{7},
                                std::size_t{2}, std::size_t{3}}) {
      const std::vector<sim::PeerId> owner = reference_owners(sh.n, sh.k, r);
      for (const double density : {1.0, 0.5, 0.05}) {
        const BitVec unknown =
            BitVec::generate(sh.n, [&] { return rng.flip(density); });
        const BitVec src = BitVec::generate(sh.n, [&] { return rng.flip(); });
        std::vector<BitVec> want(sh.k, BitVec(sh.n));
        for (std::size_t b = 0; b < sh.n; ++b) {
          ASSERT_LT(owner[b], sh.k);
          if (unknown.get(b)) want[owner[b]].set(b, true);
        }
        const crashm::Snapshot snap = layout.snapshot(unknown, r);
        for (sim::PeerId q = 0; q < sh.k; ++q) {
          EXPECT_EQ(layout.share(unknown, r, q), SparseMask(want[q]))
              << "n=" << sh.n << " k=" << sh.k << " r=" << r << " q=" << q;

          const crashm::ChunkPtr chunk =
              layout.chunk(snap, r, q, src, known, "claim 1");
          BitVec values(sh.n);
          want[q].for_each_set([&](std::size_t b) { values.set(b, src.get(b)); });
          EXPECT_EQ(applied(*chunk), std::make_pair(want[q], values))
              << "n=" << sh.n << " k=" << sh.k << " r=" << r << " q=" << q;
          EXPECT_EQ(chunk->count(), want[q].popcount());
        }
      }
    }
  }
}

TEST(CrashMultiOwnerLayout, ChunkIsBuiltOncePerSnapshotAndOwner) {
  const std::size_t n = 1000, k = 7;
  crashm::OwnerLayout layout(n, k);
  Rng rng(8);
  const BitVec out = rng.fair_bits(n);
  const BitVec known(n, true);
  const crashm::Snapshot snap = layout.snapshot(BitVec(n, true), 1);
  const crashm::ChunkPtr first = layout.chunk(snap, 1, 3, out, known, "c1");
  EXPECT_EQ(layout.chunks_built(), 1u);
  EXPECT_EQ(layout.chunk(snap, 1, 3, out, known, "c1"), first);
  EXPECT_EQ(layout.chunks_built(), 1u);
  // Another owner, or the same owner of another snapshot, is another chunk.
  EXPECT_NE(layout.chunk(snap, 1, 4, out, known, "c1"), first);
  BitVec fewer(n, true);
  fewer.set(0, false);
  const crashm::Snapshot other = layout.snapshot(fewer, 1);
  EXPECT_NE(layout.chunk(other, 1, 3, out, known, "c1"), first);
  EXPECT_EQ(layout.chunks_built(), 3u);
}

TEST(CrashMultiOwnerLayout, DisagreeingResponderGetsItsOwnValues) {
  // A mutating source can leave two honest responders with different values
  // for one share bit: each must answer with its own.
  const std::size_t n = 1000, k = 7;
  crashm::OwnerLayout layout(n, k);
  Rng rng(9);
  const BitVec out = rng.fair_bits(n);
  const BitVec known(n, true);
  const crashm::Snapshot snap = layout.snapshot(BitVec(n, true), 2);
  const crashm::ChunkPtr kept = layout.chunk(snap, 2, 5, out, known, "c1");
  std::size_t bit = 0;
  while (crashm::hashed_owner(bit, 2, k) != 5) ++bit;
  BitVec mine = out;
  mine.flip(bit);
  const crashm::ChunkPtr own = layout.chunk(snap, 2, 5, mine, known, "c1");
  EXPECT_NE(own, kept);
  EXPECT_TRUE(support::agrees_with(*own, mine));
  EXPECT_FALSE(support::agrees_with(*own, out));
  EXPECT_EQ(applied(*own).first, applied(*kept).first);
  EXPECT_EQ(layout.chunks_built(), 2u);
  // The first chunk stays kept; its own values still find it.
  EXPECT_EQ(layout.chunk(snap, 2, 5, out, known, "c1"), kept);
  EXPECT_TRUE(support::agrees_with(*kept, out));
}

TEST(CrashMultiOwnerLayout, Claim1BreachThrows) {
  const std::size_t n = 1000, k = 7;
  crashm::OwnerLayout layout(n, k);
  const BitVec out(n);
  BitVec known(n, true);
  known.set(0, false);  // bit 0 lies in peer 0's phase-1 block
  const crashm::Snapshot snap = layout.snapshot(BitVec(n, true), 1);
  EXPECT_THROW((void)layout.chunk(snap, 1, 0, out, known, "c1"),
               contract_violation);
  // Nothing was kept: a responder that does know the bit gets a chunk.
  const crashm::ChunkPtr chunk =
      layout.chunk(snap, 1, 0, out, BitVec(n, true), "c1");
  EXPECT_TRUE(applied(*chunk).first.get(0));
  // A kept chunk is checked again on every call.
  EXPECT_THROW((void)layout.chunk(snap, 1, 0, out, known, "c1"),
               contract_violation);
}

TEST(CrashMultiOwnerLayout, EqualSnapshotsSharePointerOnlyWithinPhase) {
  const std::size_t n = 300, k = 5;
  crashm::OwnerLayout layout(n, k);
  Rng rng(12);
  const BitVec unknown = rng.fair_bits(n);
  const crashm::Snapshot a = layout.snapshot(unknown, 2);
  EXPECT_EQ(*a, unknown);
  EXPECT_EQ(layout.snapshot(unknown, 2), a);
  const crashm::Snapshot later = layout.snapshot(unknown, 3);
  EXPECT_NE(later, a);
  EXPECT_EQ(*later, *a);
  BitVec changed = unknown;
  changed.flip(17);
  EXPECT_NE(layout.snapshot(changed, 2), a);
  // A snapshot answers only for its own phase.
  const BitVec out(n), known(n, true);
  EXPECT_THROW((void)layout.chunk(a, 3, 0, out, known, "c1"),
               contract_violation);
  EXPECT_THROW((void)layout.chunk(std::make_shared<const BitVec>(unknown), 2,
                                  0, out, known, "c1"),
               contract_violation);
}

TEST(CrashMultiOwnerLayout, Preconditions) {
  crashm::OwnerLayout layout(100, 8);
  EXPECT_THROW((void)layout.share(BitVec(99), 1, 0), contract_violation);
  EXPECT_THROW((void)layout.share(BitVec(100), 0, 0), contract_violation);
  EXPECT_THROW((void)layout.share(BitVec(100), 2, 8), contract_violation);
  EXPECT_THROW((void)layout.snapshot(BitVec(99), 1), contract_violation);
  EXPECT_THROW((void)layout.snapshot(BitVec(100), 0), contract_violation);
  const crashm::Snapshot snap = layout.snapshot(BitVec(100, true), 1);
  const BitVec full(100, true);
  EXPECT_THROW((void)layout.chunk(snap, 1, 8, full, full, "c1"),
               contract_violation);
  EXPECT_THROW((void)layout.chunk(snap, 1, 0, BitVec(99), full, "c1"),
               contract_violation);
  EXPECT_THROW((void)layout.chunk(nullptr, 1, 0, full, full, "c1"),
               contract_violation);
}

TEST(CrashMultiOwnerLayout, Table1WorldBuildsFewChunks) {
  // Table 1's crash_multi row (n = 2^14, k = 96, beta = 0.5, random
  // crashes, uniform latency) as the table1-uniform benchmark workload runs
  // it at seed 1: peers that start a phase with equal unknown sets share
  // one snapshot, so the world builds a few hundred chunks where its
  // responses carry hundreds of thousands.
  Scenario s;
  s.cfg = cfg(1 << 14, 96, 0.5, 22, 4096);
  s.honest = make_crash_multi();
  s.latency = uniform_latency();
  Rng rng(1 * 31 + 7);
  s.crashes = adv::CrashPlan::random(s.cfg, rng, s.cfg.max_faulty(), 10.0);
  std::size_t built = 0;
  s.post_run = [&](dr::World& world, const dr::RunReport&) {
    bool made = false;
    built = world
                .shared<crashm::OwnerLayout>(crashm::OwnerLayout::kSharedName,
                                             [&] {
                                               made = true;
                                               return crashm::OwnerLayout(1, 1);
                                             })
                .chunks_built();
    EXPECT_FALSE(made);
  };
  expect_ok(s, "table 1 crash_multi");
  EXPECT_GT(built, 0u);
  EXPECT_LE(built, 245u);
}

// ---- Stage-3 answers against a per-peer reference. ----

/// A REQ2 answer built entry by entry, as responses were before they
/// shared the request's list: (listed peer, its chunk or null for "me
/// neither") per listed id below k.
using RefAnswers = std::vector<std::pair<sim::PeerId, crashm::ChunkPtr>>;

RefAnswers reference_answers(crashm::OwnerLayout& layout,
                             const crashm::Req2& req, const PeerSet* heard,
                             const BitVec& out, const BitVec& known) {
  RefAnswers answers;
  for (const sim::PeerId id : req.missing->ids) {
    if (id >= layout.k()) continue;
    if (heard != nullptr && heard->contains(id)) {
      answers.emplace_back(id, layout.chunk(req.unknown, req.phase, id, out,
                                            known, "c1"));
    } else {
      answers.emplace_back(id, nullptr);
    }
  }
  return answers;
}

bool reference_equal(const RefAnswers& a, const RefAnswers& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             (x.second == y.second ||
                              (x.second && y.second && *x.second == *y.second));
                    });
}

std::size_t reference_bits(const RefAnswers& answers) {
  std::size_t bits = 8;
  for (const auto& [peer, chunk] : answers) {
    bits += 17 + (chunk ? chunk->size_bits() : 0);
  }
  return bits;
}

/// (out, known) after applying `chunks` in order to blank arrays.
std::pair<BitVec, BitVec> applied_in_order(
    std::size_t n, const std::vector<crashm::ChunkPtr>& chunks) {
  BitVec out(n), known(n);
  for (const crashm::ChunkPtr& c : chunks) c->apply_to(out, known);
  return {out, known};
}

TEST(CrashMultiResp2, MatchesPerPeerReference) {
  const std::size_t n = 2000, k = 24, r = 2;
  crashm::OwnerLayout layout(n, k);
  Rng rng(4242);
  // A dense unknown set, and a sparse one that leaves most owners' shares
  // empty: equal (empty) chunks then stand for different listed peers.
  BitVec sparse(n);
  sparse.set(rng.below(n), true);
  const std::vector<crashm::Snapshot> snaps{
      layout.snapshot(BitVec::generate(n, [&] { return rng.flip(0.3); }), r),
      layout.snapshot(sparse, r)};
  // Two responders' values: `mutated` differs in one bit of every owner's
  // share of the dense set, as after a source mutation between queries.
  const BitVec out = rng.fair_bits(n);
  BitVec mutated = out;
  for (sim::PeerId q = 0; q < k; ++q) {
    const SparseMask share = layout.share(*snaps[0], r, q);
    std::vector<std::size_t> bits;
    share.for_each_set([&](std::size_t b) { bits.push_back(b); });
    if (!bits.empty()) mutated.flip(bits[rng.below(bits.size())]);
  }
  const BitVec known(n, true);
  // Few candidate lists and heard sets, so equal answers recur. Two lists
  // differ only by ids >= k, which get no entry: their answers are equal.
  std::vector<std::vector<sim::PeerId>> lists{{}, {3, 5, 7, 11, 20},
                                              {3, 5, 7, 11, 20, 25, 40}};
  for (int extra = 0; extra < 3; ++extra) {
    std::vector<sim::PeerId> ids;
    for (std::uint64_t c = rng.below(k); c > 0; --c) {
      ids.push_back(static_cast<sim::PeerId>(rng.below(k + 8)));
    }
    lists.push_back(std::move(ids));
  }
  std::vector<std::optional<PeerSet>> heard_sets{std::nullopt, PeerSet{}};
  // Two heard sets naming different peers of one list, as many of them.
  for (const auto& [a, b] : {std::pair<sim::PeerId, sim::PeerId>{3, 7},
                             std::pair<sim::PeerId, sim::PeerId>{5, 11}}) {
    PeerSet heard;
    heard.insert(a, k);
    heard.insert(b, k);
    heard_sets.push_back(heard);
  }
  for (int extra = 0; extra < 3; ++extra) {
    PeerSet heard;
    const double p = rng.uniform01();
    for (sim::PeerId q = 0; q < k; ++q) {
      if (rng.flip(p)) heard.insert(q, k);
    }
    heard_sets.push_back(heard);
  }

  struct Case {
    std::shared_ptr<const crashm::Resp2> resp;
    RefAnswers ref;
  };
  std::vector<Case> cases;
  for (int trial = 0; trial < 150; ++trial) {
    const auto& ids = lists[rng.below(lists.size())];
    const auto& heard = heard_sets[rng.below(heard_sets.size())];
    const PeerSet* h = heard ? &*heard : nullptr;
    const BitVec& values = rng.flip(0.3) ? mutated : out;
    // Each request builds its own list: equal content, distinct pointers.
    const crashm::Req2 req(r, std::make_shared<const crashm::MissingList>(ids),
                           snaps[rng.below(snaps.size())]);
    const auto resp = crashm::answer(layout, req, h, values, known);
    const RefAnswers ref = reference_answers(layout, req, h, values, known);

    std::vector<crashm::ChunkPtr> ref_chunks;
    std::vector<sim::PeerId> ref_peers;
    for (const auto& [peer, chunk] : ref) {
      ref_peers.push_back(peer);
      if (chunk) ref_chunks.push_back(chunk);
    }
    EXPECT_EQ(resp->phase, r);
    EXPECT_EQ(resp->missing->ids, ref_peers) << "trial " << trial;
    ASSERT_EQ(resp->heard.size(), ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j) {
      EXPECT_EQ(resp->heard.get(j), ref[j].second != nullptr);
    }
    ASSERT_EQ(resp->chunks.size(), ref_chunks.size()) << "trial " << trial;
    for (std::size_t j = 0; j < ref_chunks.size(); ++j) {
      EXPECT_EQ(*resp->chunks[j], *ref_chunks[j]) << "trial " << trial;
    }
    EXPECT_EQ(applied_in_order(n, resp->chunks),
              applied_in_order(n, ref_chunks));
    std::size_t chunk_bits = 0;
    for (const auto& c : resp->chunks) chunk_bits += c->size_bits();
    EXPECT_EQ(resp->size_bits(), 8 + 17 * ref.size() + chunk_bits);
    EXPECT_EQ(resp->size_bits(), reference_bits(ref));
    cases.push_back({resp, ref});
  }
  // Content equality defines the same classes as the reference's.
  std::size_t equal_pairs = 0;
  for (std::size_t a = 0; a < cases.size(); ++a) {
    for (std::size_t b = 0; b < cases.size(); ++b) {
      const bool want = reference_equal(cases[a].ref, cases[b].ref);
      ASSERT_EQ(cases[a].resp->content_equals(*cases[b].resp), want)
          << a << " vs " << b;
      if (want) {
        EXPECT_EQ(cases[a].resp->content_hash(), cases[b].resp->content_hash());
        if (a != b) ++equal_pairs;
      }
    }
  }
  EXPECT_GT(equal_pairs, 100u);
  EXPECT_LT(equal_pairs, cases.size() * (cases.size() - 1) / 2);
}

TEST(CrashMultiResp2, RespondersWithTheSameHeardSetInternToOneBody) {
  const std::size_t n = 4096, k = 16, r = 3;
  crashm::OwnerLayout layout(n, k);
  Rng rng(77);
  const crashm::Snapshot snap =
      layout.snapshot(BitVec::generate(n, [&] { return rng.flip(0.2); }), r);
  const BitVec out = rng.fair_bits(n);
  const BitVec known(n, true);
  PeerSet heard, other_heard;
  for (const sim::PeerId q : {0u, 2u, 5u, 9u}) heard.insert(q, k);
  for (const sim::PeerId q : {0u, 2u, 9u}) other_heard.insert(q, k);
  const auto list = std::make_shared<const crashm::MissingList>(
      std::vector<sim::PeerId>{2, 4, 5, 9, 12});
  const crashm::Req2 req(r, list, snap);
  // Two responders answering the same request, and one answering another
  // request with an equal list.
  const crashm::Req2 copy(
      r, std::make_shared<const crashm::MissingList>(list->ids), snap);
  const auto respond = [&](const crashm::Req2& to, const PeerSet& h) {
    return sim::PayloadPtr(crashm::answer(layout, to, &h, out, known));
  };
  const sim::PayloadPtr first = respond(req, heard);
  const sim::PayloadPtr second = respond(req, heard);
  const sim::PayloadPtr third = respond(copy, heard);
  const sim::PayloadPtr other = respond(req, other_heard);
  ASSERT_NE(first, second);
  sim::PayloadBank bank;
  ASSERT_EQ(bank.intern(first), first);
  bank.charge(first, 1);
  EXPECT_EQ(bank.intern(second), first);
  EXPECT_EQ(bank.intern(third), first);
  EXPECT_EQ(bank.intern(other), other);
  EXPECT_EQ(bank.interned_payloads(), 2u);
  bank.credit(first.get(), 1);
}

TEST(CrashMultiResp2, Claim1BreachThrowsFromReq2) {
  const std::size_t n = 1000, k = 7, r = 1;
  crashm::OwnerLayout layout(n, k);
  const BitVec out(n);
  BitVec known(n, true);
  known.set(0, false);  // bit 0 lies in peer 0's phase-1 block
  const crashm::Snapshot snap = layout.snapshot(BitVec(n, true), r);
  const crashm::Req2 req(r,
                         std::make_shared<const crashm::MissingList>(
                             std::vector<sim::PeerId>{0, 3}),
                         snap);
  PeerSet heard;
  heard.insert(3, k);
  // Peer 0 unheard: a "me neither" needs no bits.
  EXPECT_EQ(crashm::answer(layout, req, &heard, out, known)->chunks.size(), 1u);
  heard.insert(0, k);
  for (int call = 0; call < 2; ++call) {  // first build, then a kept chunk
    try {
      (void)crashm::answer(layout, req, &heard, out, known);
      ADD_FAILURE() << "no Claim 1 violation on call " << call;
    } catch (const contract_violation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "heard the absent peer but lack its bits"),
                std::string::npos)
          << e.what();
    }
    (void)layout.chunk(snap, r, 0, out, BitVec(n, true), "c1");
  }
}

// ---- The kept known-bit count. ----

/// Compares every crash_multi peer's kept known-bit count with its known
/// mask's popcount at each delivery (so after every handler before it) and
/// whenever check() is called.
class KnownCountChecker final : public sim::NetworkObserver {
 public:
  void attach(dr::World& world) {
    world_ = &world;
    world.add_observer(this);
  }
  void on_deliver(const sim::Message&) override { check(); }
  void check() {
    for (sim::PeerId id = 0; id < world_->config().k; ++id) {
      const auto* peer = dynamic_cast<const CrashMultiPeer*>(&world_->peer(id));
      if (peer == nullptr) continue;
      ++checks_;
      if (peer->known_count() != peer->known().popcount()) ++mismatches_;
    }
  }
  [[nodiscard]] std::size_t checks() const { return checks_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  dr::World* world_ = nullptr;
  std::size_t checks_ = 0;
  std::size_t mismatches_ = 0;
};

/// Runs `s` with a KnownCountChecker attached, checking once more after the
/// run.
dr::RunReport run_checking_known_count(Scenario s) {
  KnownCountChecker checker;
  s.instrument = [&](dr::World& world) { checker.attach(world); };
  s.post_run = [&](dr::World&, const dr::RunReport&) { checker.check(); };
  const dr::RunReport report = run_scenario(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(checker.mismatches(), 0u);
  return report;
}

TEST(CrashMultiKnownCount, MatchesMaskAfterEveryHandler) {
  // Random crashes over several phases: RESP1s, RESP2s, the direct tail
  // (complete_now), FULL adoption; with and without fast cancel.
  for (const bool fast_cancel : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Scenario s;
      s.cfg = cfg(1 << 12, 16, 0.5, seed);
      s.honest = make_crash_multi({.fast_cancel = fast_cancel});
      s.latency = uniform_latency();
      Rng rng(seed);
      s.crashes = adv::CrashPlan::random(s.cfg, rng, s.cfg.max_faulty(), 6.0);
      run_checking_known_count(s);
    }
  }
  // A late starter learns its first bits from others' messages.
  Scenario late;
  late.cfg = cfg(1 << 12, 8, 0.25, 13);
  late.honest = make_crash_multi();
  late.start_times[0] = 20.0;
  late.crashes.add_at_time(7, 0.0);
  run_checking_known_count(late);
}

TEST(CrashMultiKnownCount, MatchesMaskAfterJournalReplay) {
  Scenario s;
  s.cfg = dr::Config{
      .n = 1024, .k = 8, .beta = 0.5, .message_bits = 64, .seed = 12};
  s.honest = make_crash_multi();
  s.recovery.factory = make_crash_multi();
  s.crashes.add_at_time(5, 1.5);
  s.crashes.add_restart_after(5, 2.0);
  const dr::RunReport report = run_checking_known_count(s);
  EXPECT_EQ(report.recovery.journal_replays, 1u);
  EXPECT_GT(report.recovery.bits_recovered, 0u);
}

/// The world of oracle::run_dynamic_download (staggered starts, partial
/// broadcast crashes, live bit flips), with the peers held by the caller.
struct MutatingWorld {
  BitVec initial;
  dr::World world;

  explicit MutatingWorld(std::uint64_t seed)
      : initial(random_input(2048, seed)),
        world(dr::Config{.n = 2048, .k = 12, .beta = 0.25,
                         .message_bits = 512, .seed = seed},
              initial) {
    const dr::Config& c = world.config();
    Rng starts(seed);
    for (sim::PeerId id = 0; id < c.k; ++id) {
      world.set_peer(id, std::make_unique<CrashMultiPeer>());
      world.set_start_time(id, starts.uniform(0.0, 2.0));
    }
    Rng crash_rng = Rng(seed).split(1);
    adv::CrashPlan::partial_broadcast(c, crash_rng, c.max_faulty(),
                                      c.k - 1 + c.k / 2)
        .apply(world);
    for (const oracle::Mutation& m :
         oracle::periodic_mutations(c, 64, 6.0, seed)) {
      world.engine().schedule_at(m.at, [this, bit = m.bit] {
        BitVec data = world.source().data();
        data.flip(bit);
        world.source().set_data(std::move(data));
      });
    }
  }
};

TEST(CrashMultiKnownCount, MatchesMaskOverAMutatingSource) {
  // Responders with different values answer with their own chunks, and the
  // requester's count must still follow its mask.
  std::size_t torn_worlds = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    MutatingWorld m(seed);
    KnownCountChecker checker;
    checker.attach(m.world);
    const dr::RunReport report = m.world.run();
    checker.check();
    EXPECT_TRUE(report.all_terminated);
    EXPECT_GT(checker.checks(), 0u);
    EXPECT_EQ(checker.mismatches(), 0u) << "seed " << seed;
    const BitVec& final_data = m.world.source().data();
    for (sim::PeerId id = 0; id < m.world.config().k; ++id) {
      const BitVec& out = report.outputs[id];
      if (!m.world.is_faulty(id) && out != m.initial && out != final_data) {
        ++torn_worlds;  // bits of different eras: the peers' values differed
        break;
      }
    }
  }
  EXPECT_GT(torn_worlds, 0u);
}

// ---- Skipping chunks already applied. ----

TEST(CrashMultiLearn, MutatingSourceOutputsMatchApplyingEveryChunk) {
  // Every output of these mutating worlds, digested. The digests were taken
  // from the protocol as it was before it skipped re-applied chunks (every
  // chunk of every response applied in arrival order), so they pin that the
  // skip keeps each peer's last write.
  const std::uint64_t want[] = {2970073851449347512ull, 9249808216666493814ull,
                                16114170064809679934ull,
                                10584710799917458813ull};
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    MutatingWorld m(seed);
    const dr::RunReport report = m.world.run();
    std::uint64_t digest = 0;
    for (const BitVec& out : report.outputs) {
      digest = sim::payload_hash_mix(digest, out.hash());
    }
    EXPECT_EQ(digest, want[seed - 10]) << "seed " << seed;
  }
}

TEST(CrashMultiLearn, ReappliedChunkWinsAfterAKnownBitChanged) {
  // Two chunks over a missing peer's bits with different values, as a
  // mutating source can produce: C1 for that peer in a RESP2, then C2 from
  // another owner over the same bits, then C1 again in another RESP2. The
  // second C1 is still the chunk last applied for the missing peer, but C2
  // has rewritten known bits since, so it must be applied again: the last
  // write wins.
  constexpr std::size_t n = 4096;  // k = 4: blocks of 1024 bits, quorum 3
  dr::World world(dr::Config{.n = n, .k = 4, .beta = 0.25,
                             .message_bits = 1024, .seed = 1},
                  BitVec(n));
  for (sim::PeerId id = 0; id < 4; ++id) {
    world.set_peer(id, std::make_unique<CrashMultiPeer>());
    // Peer 0 queries its block and waits; the others start too late to
    // answer before the crafted messages below.
    world.set_start_time(id, id == 0 ? 0.0 : 100.0);
  }
  const auto chunk_of = [](std::size_t lo, std::size_t hi, bool value) {
    BitVec mask(n);
    mask.fill(lo, hi, true);
    return std::make_shared<const MaskChunk>(
        MaskChunk::extract(BitVec(n, value), SparseMask(mask)));
  };
  dr::Peer& peer = world.peer(0);
  const auto deliver_at = [&](sim::Time at, sim::PeerId from,
                              sim::PayloadPtr payload) {
    world.engine().schedule_at(at, [&peer, from, payload] {
      peer.deliver(sim::Message{.from = from, .to = 0, .payload = payload});
    });
  };
  const auto resp1 = [](crashm::ChunkPtr chunk) {
    return std::make_shared<crashm::Resp1>(1, std::move(chunk));
  };
  // "Peer 3 answered me, here are its bits."
  const auto resp2 = [](crashm::ChunkPtr chunk) {
    return std::make_shared<crashm::Resp2>(
        1, std::make_shared<const crashm::MissingList>(
               std::vector<sim::PeerId>{3}),
        BitVec(1, true), std::vector<crashm::ChunkPtr>{std::move(chunk)});
  };
  // Peers 1 and 2 answer: with peer 0 that is the quorum, so peer 0 sends
  // a REQ2 naming peer 3 and waits for two RESP2s.
  deliver_at(1.0, 1, resp1(chunk_of(1024, 2048, false)));
  deliver_at(2.0, 2, resp1(chunk_of(2048, 3072, false)));
  const crashm::ChunkPtr ones = chunk_of(3072, 3584, true);
  deliver_at(3.0, 1, resp2(ones));
  deliver_at(4.0, 1, resp1(chunk_of(3072, 3584, false)));  // rewrites them
  // The last RESP2 of the quorum: C1 is applied again, then the phase ends
  // and peer 0 queries the last 512 bits itself.
  deliver_at(5.0, 2, resp2(ones));
  (void)world.run();
  ASSERT_TRUE(peer.terminated());
  EXPECT_EQ(peer.termination_time(), 5.0);
  BitVec want(n);
  want.fill(3072, 3584, true);
  EXPECT_EQ(peer.output(), want);
}

// ---- Resending unchanged response bodies. ----

/// A k = 4 world in which only peer 0 runs before t = 100 (the others start
/// then), and the test plays the other peers' requests and answers to it.
/// Records every RESP1/RESP2 body peer 0 sends before t = 100, holding the
/// bodies so that no address is reused.
class ResponderWorld final : public sim::NetworkObserver {
 public:
  static constexpr std::size_t n = 4096;  // blocks of 1024 bits, quorum 3

  ResponderWorld()
      : world_(dr::Config{.n = n, .k = 4, .beta = 0.25,
                          .message_bits = n, .seed = 1},
               BitVec(n)) {
    for (sim::PeerId id = 0; id < 4; ++id) {
      // Without fast cancel, peer 0 stays in a stage until its quorum.
      world_.set_peer(id, std::make_unique<CrashMultiPeer>(
                              CrashMultiPeer::Options{.fast_cancel = false}));
      world_.set_start_time(id, id == 0 ? 0.0 : 100.0);
    }
    world_.add_observer(this);
    snap_ = layout().snapshot(BitVec(n, true), 1);
  }

  void on_send(const sim::Message& msg, std::size_t) override {
    if (msg.from != 0 || msg.sent_at >= 100.0) return;
    if (sim::payload_as<crashm::Resp1>(*msg.payload) != nullptr ||
        sim::payload_as<crashm::Resp2>(*msg.payload) != nullptr) {
      sent.push_back(msg.payload);
    }
  }

  crashm::OwnerLayout& layout() {
    return world_.shared<crashm::OwnerLayout>(
        crashm::OwnerLayout::kSharedName,
        [] { return crashm::OwnerLayout(n, 4); });
  }
  const crashm::Snapshot& snapshot() const { return snap_; }

  /// Peer q's phase-1 block, every value `value`.
  static crashm::ChunkPtr block(sim::PeerId q, bool value) {
    return std::make_shared<const MaskChunk>(MaskChunk::extract(
        BitVec(n, value), SparseMask::range(n, 1024 * q, 1024 * (q + 1))));
  }
  std::shared_ptr<const crashm::Req2> req2(std::vector<sim::PeerId> ids) const {
    return std::make_shared<const crashm::Req2>(
        1, std::make_shared<const crashm::MissingList>(std::move(ids)), snap_);
  }

  /// Delivers `payload` from `from` to peer 0 at time `at`.
  void deliver_at(sim::Time at, sim::PeerId from, sim::PayloadPtr payload) {
    world_.engine().schedule_at(at, [this, from, payload] {
      world_.peer(0).deliver(
          sim::Message{.from = from, .to = 0, .payload = payload});
    });
  }
  /// Peers 1 and 2 answer peer 0's REQ1: with peer 0, a quorum, so peer 0
  /// sends a REQ2 naming peer 3 and answers phase-1 REQ2s from then on.
  void reach_stage3(sim::Time at) {
    deliver_at(at, 1, std::make_shared<crashm::Resp1>(1, block(1, false)));
    deliver_at(at, 2, std::make_shared<crashm::Resp1>(1, block(2, false)));
  }

  void run() { (void)world_.run(); }

  std::vector<sim::PayloadPtr> sent;

 private:
  dr::World world_;
  crashm::Snapshot snap_;
};

TEST(CrashMultiResend, Resp1IsResentWhileTheChunkIsTheKeptOne) {
  ResponderWorld w;
  const auto req1 = std::make_shared<crashm::Req1>(1, w.snapshot());
  for (sim::PeerId from = 1; from < 4; ++from) {
    w.deliver_at(3.0 * from, from, req1);
  }
  w.run();
  ASSERT_EQ(w.sent.size(), 3u);
  EXPECT_EQ(w.sent[1], w.sent[0]);
  EXPECT_EQ(w.sent[2], w.sent[0]);
  // The body a fresh answer would build: the layout's kept chunk of peer
  // 0's block, in phase 1.
  BitVec known(ResponderWorld::n);
  known.fill(0, 1024, true);
  const crashm::Resp1 fresh(
      1, w.layout().chunk(w.snapshot(), 1, 0, BitVec(ResponderWorld::n),
                          known, "c1"));
  EXPECT_TRUE(fresh.content_equals(*w.sent[0]));
  EXPECT_EQ(sim::payload_as<crashm::Resp1>(*w.sent[0])->chunk, fresh.chunk);
}

TEST(CrashMultiResend, Resp2IsResentUntilItsInputsChange) {
  // Requests come 3 apart, so every earlier response (one unit message,
  // latency 1) has settled: an equal pointer is a resend, not the bank
  // interning a fresh body onto one still in flight.
  ResponderWorld w;
  w.reach_stage3(0.5);
  // Three requests with equal lists (different objects): the same body
  // three times. Peer 0 heard peer 1, so each carries peer 1's chunk.
  w.deliver_at(2.0, 2, w.req2({1, 3}));
  w.deliver_at(5.0, 3, w.req2({1, 3}));
  w.deliver_at(8.0, 1, w.req2({1, 3}));
  // The heard set grows (peer 3's late RESP1): a new body for the same
  // list, then resent.
  w.deliver_at(9.0, 3, std::make_shared<crashm::Resp1>(
                          1, ResponderWorld::block(3, false)));
  w.deliver_at(11.0, 2, w.req2({1, 3}));
  w.deliver_at(14.0, 1, w.req2({1, 3}));
  // A different list: a new body.
  w.deliver_at(17.0, 3, w.req2({2, 3}));
  // A RESP1 rewrites peer 1's known bits with other values: from then on
  // every answer is built afresh.
  w.deliver_at(18.0, 1, std::make_shared<crashm::Resp1>(
                            1, ResponderWorld::block(1, true)));
  w.deliver_at(20.0, 2, w.req2({1, 3}));
  w.deliver_at(23.0, 3, w.req2({1, 3}));
  w.run();
  ASSERT_EQ(w.sent.size(), 8u);
  const auto& s = w.sent;
  EXPECT_EQ(s[1], s[0]);
  EXPECT_EQ(s[2], s[0]);
  EXPECT_NE(s[3], s[0]);  // the heard set grew
  EXPECT_EQ(s[4], s[3]);
  EXPECT_NE(s[5], s[3]);  // the other list
  EXPECT_NE(s[6], s[3]);  // rewritten
  EXPECT_NE(s[7], s[6]);

  // Each resent body equals a fresh answer, chunk pointers included.
  PeerSet heard;
  for (const sim::PeerId q : {0u, 1u, 2u}) heard.insert(q, 4);
  const BitVec zeros(ResponderWorld::n);
  BitVec known(ResponderWorld::n);
  known.fill(0, 3072, true);
  const auto first = crashm::answer(w.layout(), *w.req2({1, 3}), &heard,
                                    zeros, known);
  const auto& sent0 = *sim::payload_as<crashm::Resp2>(*s[0]);
  EXPECT_TRUE(first->content_equals(sent0));
  EXPECT_EQ(first->chunks, sent0.chunks);
  heard.insert(3, 4);
  known.fill(3072, 4096, true);
  const auto grown = crashm::answer(w.layout(), *w.req2({1, 3}), &heard,
                                    zeros, known);
  const auto& sent4 = *sim::payload_as<crashm::Resp2>(*s[4]);
  EXPECT_TRUE(grown->content_equals(sent4));
  EXPECT_EQ(grown->chunks, sent4.chunks);
  EXPECT_EQ(sent4.chunks.size(), 2u);
  // The rewrite is a mutating source's doing: each fresh body carries a
  // chunk of its own, equal in content but not the kept one.
  const auto& sent6 = *sim::payload_as<crashm::Resp2>(*s[6]);
  const auto& sent7 = *sim::payload_as<crashm::Resp2>(*s[7]);
  EXPECT_TRUE(sent6.content_equals(sent7));
  EXPECT_NE(sent6.chunks[0], sent7.chunks[0]);
}

TEST(CrashMultiResend, RecheckThrowsOnAClaim1BreachAndSeesOtherValues) {
  const std::size_t n = 1000, k = 7, r = 1;
  crashm::OwnerLayout layout(n, k);
  const crashm::Snapshot snap = layout.snapshot(BitVec(n, true), r);
  const crashm::Req2 req(r,
                         std::make_shared<const crashm::MissingList>(
                             std::vector<sim::PeerId>{0, 3}),
                         snap);
  PeerSet heard;
  heard.insert(0, k);
  heard.insert(3, k);
  const BitVec out(n);
  const BitVec all(n, true);
  bool kept = false;
  const auto resp = crashm::answer(layout, req, &heard, out, all, &kept);
  EXPECT_TRUE(kept);
  EXPECT_TRUE(crashm::still_answers(*resp, out, all));
  BitVec lacking = all;
  lacking.set(0, false);  // bit 0 lies in peer 0's phase-1 block
  try {
    (void)crashm::still_answers(*resp, out, lacking);
    ADD_FAILURE() << "expected a Claim 1 violation";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find(crashm::kClaim1Req2),
              std::string::npos);
  }
  BitVec other = out;
  other.flip(0);
  EXPECT_FALSE(crashm::still_answers(*resp, other, all));
  // Values that differ from the kept chunk give a chunk of their own,
  // which is not the kept one.
  (void)crashm::answer(layout, req, &heard, other, all, &kept);
  EXPECT_FALSE(kept);
}

TEST(CrashMultiResend, ARevivedIncarnationResendsNothingOfTheOld) {
  // Recovery worlds with crashes mid-run: no response body a peer sent in
  // one incarnation is sent by a later one.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scenario s;
    s.cfg = dr::Config{
        .n = 1024, .k = 8, .beta = 0.5, .message_bits = 64, .seed = seed};
    s.honest = make_crash_multi();
    s.recovery.factory = make_crash_multi();
    for (const sim::PeerId id : {2u, 5u}) {
      s.crashes.add_at_time(id, 1.5);
      s.crashes.add_restart_after(id, 2.0);
    }
    struct Log final : sim::NetworkObserver {
      dr::World* world = nullptr;
      std::vector<std::pair<sim::PayloadPtr, std::size_t>> sent[8];
      void on_send(const sim::Message& msg, std::size_t) override {
        if (sim::payload_as<crashm::Resp1>(*msg.payload) != nullptr ||
            sim::payload_as<crashm::Resp2>(*msg.payload) != nullptr) {
          sent[msg.from].emplace_back(msg.payload,
                                      world->restart_count(msg.from));
        }
      }
    } log;
    s.instrument = [&](dr::World& world) {
      log.world = &world;
      world.add_observer(&log);
    };
    const dr::RunReport report = run_scenario(s);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.recovery.restarts, 0u);
    std::size_t resent = 0;
    for (const auto& bodies : log.sent) {
      for (std::size_t i = 0; i < bodies.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          if (bodies[j].first != bodies[i].first) continue;
          ++resent;
          EXPECT_EQ(bodies[j].second, bodies[i].second) << "seed " << seed;
        }
      }
    }
    EXPECT_GT(resent, 0u);
  }
}

// Full sweep: (n, k, beta) x adversary style x seed.
using SweepParam = std::tuple<std::size_t, std::size_t, double, int>;
class CrashMultiSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrashMultiSweep, CorrectAndWithinBound) {
  const auto [n, k, beta, adversary] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s;
    s.cfg = cfg(n, k, beta, seed * 100 + adversary);
    s.honest = make_crash_multi();
    const std::size_t t = s.cfg.max_faulty();
    Rng rng(seed * 7 + static_cast<std::uint64_t>(adversary));
    switch (adversary) {
      case 0:
        s.crashes = adv::CrashPlan::silent_prefix(t);
        break;
      case 1:
        s.crashes = adv::CrashPlan::random(s.cfg, rng, t, 8.0);
        break;
      case 2:
        s.crashes = adv::CrashPlan::staggered(s.cfg, rng, t, 1.5);
        s.latency = seniority_latency();
        break;
      case 3:
        s.crashes = adv::CrashPlan::partial_broadcast(s.cfg, rng, t, 2);
        s.latency = uniform_latency(0.01, 1.0);
        break;
    }
    const auto report = expect_ok(s, "sweep");
    EXPECT_LE(report.query_complexity, bounds::crash_multi_q(s.cfg))
        << s.cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrashMultiSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1 << 12, 1 << 14),
                       ::testing::Values<std::size_t>(8, 16, 32),
                       ::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace asyncdr::proto
