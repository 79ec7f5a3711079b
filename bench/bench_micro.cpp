// Experiment M1 — substrate micro-benchmarks (google-benchmark): the
// simulation engine, the bit-vector kernels, the decision tree, the
// per-message work of Table 1's two costly rows, and a full small protocol
// run. These quantify the cost of the harness itself, so the experiment
// benches' runtimes can be attributed.
#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <vector>

#include "common/bitvec.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "dr/journal.hpp"
#include "dr/world.hpp"
#include "protocols/byzmulti.hpp"
#include "protocols/chunk.hpp"
#include "protocols/committee.hpp"
#include "protocols/crash_multi.hpp"
#include "protocols/crash_one.hpp"
#include "protocols/decision_tree.hpp"
#include "protocols/frequent.hpp"
#include "protocols/runner.hpp"
#include "protocols/segments.hpp"
#include "sim/engine.hpp"

namespace {

using namespace asyncdr;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::size_t sink = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_BitVecPopcount(benchmark::State& state) {
  Rng rng(1);
  const BitVec v = BitVec::generate(static_cast<std::size_t>(state.range(0)),
                                    [&] { return rng.flip(); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.popcount());
  }
}
BENCHMARK(BM_BitVecPopcount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitVecMaskAlgebra(benchmark::State& state) {
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const BitVec a = BitVec::generate(n, [&] { return rng.flip(); });
  const BitVec b = BitVec::generate(n, [&] { return rng.flip(); });
  for (auto _ : state) {
    BitVec c = a;
    c.andnot_with(b);
    benchmark::DoNotOptimize(c.is_subset_of(a));
  }
}
BENCHMARK(BM_BitVecMaskAlgebra)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_IntervalSetInsertErase(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(3);
    IntervalSet s;
    for (int i = 0; i < state.range(0); ++i) {
      const auto lo = static_cast<std::size_t>(rng.below(100000));
      if (rng.flip(0.7)) {
        s.insert(lo, lo + rng.below(50));
      } else {
        s.erase(lo, lo + rng.below(50));
      }
    }
    benchmark::DoNotOptimize(s.count());
  }
}
BENCHMARK(BM_IntervalSetInsertErase)->Arg(256)->Arg(2048);

void BM_DecisionTreeBuildAndDetermine(benchmark::State& state) {
  Rng rng(4);
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<BitVec> cands;
  std::set<std::string> seen;
  while (cands.size() < count) {
    const BitVec c = BitVec::generate(512, [&] { return rng.flip(); });
    if (seen.insert(c.to_string()).second) cands.push_back(c);
  }
  const BitVec truth = cands[0];
  for (auto _ : state) {
    const proto::DecisionTree tree(cands);
    const BitVec& winner =
        tree.determine([&](std::size_t i) { return truth.get(i); });
    benchmark::DoNotOptimize(winner.size());
  }
}
BENCHMARK(BM_DecisionTreeBuildAndDetermine)->Arg(4)->Arg(32)->Arg(128);

// Per-message handler work at Table 1's shape (n = 2^14, k = 96).
constexpr std::size_t kTableN = 1 << 14;
constexpr std::size_t kTableK = 96;

/// One crash_multi response chunk per owner in turn, with the responder's
/// Claim 1 and value checks. `cold` times first builds: each iteration
/// takes a fresh layout (owner masks and snapshot ready, untimed) and builds
/// all k owners' chunks, so the time is per k chunks. Otherwise the time is
/// per warm call: a lookup of the kept chunk plus both checks.
void run_share_chunks(benchmark::State& state, std::size_t phase,
                      double unknown_density, bool cold) {
  Rng rng(6);
  const BitVec out = rng.fair_bits(kTableN);
  const BitVec known(kTableN, true);
  const BitVec unknown =
      BitVec::generate(kTableN, [&] { return rng.flip(unknown_density); });
  const auto ready_layout = [&] {
    auto layout =
        std::make_unique<proto::crashm::OwnerLayout>(kTableN, kTableK);
    benchmark::DoNotOptimize(layout->share(unknown, phase, 0));
    return layout;
  };
  auto layout = ready_layout();
  auto snap = layout->snapshot(unknown, phase);
  sim::PeerId owner = 0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      layout = ready_layout();
      snap = layout->snapshot(unknown, phase);
      state.ResumeTiming();
      for (sim::PeerId q = 0; q < kTableK; ++q) {
        benchmark::DoNotOptimize(
            layout->chunk(snap, phase, q, out, known, "Claim 1"));
      }
    } else {
      benchmark::DoNotOptimize(
          layout->chunk(snap, phase, owner, out, known, "Claim 1"));
      owner = (owner + 1) % kTableK;
    }
  }
}

/// Phase 1: a whole block of n/k bits, nothing known yet.
void BM_CrashMultiShareBlock(benchmark::State& state, bool cold) {
  run_share_chunks(state, 1, 1.0, cold);
}
BENCHMARK_CAPTURE(BM_CrashMultiShareBlock, cold, true)->Iterations(300);
BENCHMARK_CAPTURE(BM_CrashMultiShareBlock, warm, false);

/// Phase 2: a hashed owner's list filtered by a sparse unknown set (about
/// 20 bits per chunk, as on table1-uniform).
void BM_CrashMultiShareHashed(benchmark::State& state, bool cold) {
  run_share_chunks(state, 2, 0.12, cold);
}
BENCHMARK_CAPTURE(BM_CrashMultiShareHashed, cold, true)->Iterations(300);
BENCHMARK_CAPTURE(BM_CrashMultiShareHashed, warm, false);

/// One warm responder answering a phase-2 REQ2 at Table 1's shape (beta =
/// 1/2): 48 missing peers, every other one heard, all chunks already kept.
/// The time is per response: one snapshot lookup, 24 fused checks and the
/// response's size and hash.
void BM_CrashMultiReq2(benchmark::State& state) {
  constexpr std::size_t kPhase = 2;
  Rng rng(11);
  const BitVec out = rng.fair_bits(kTableN);
  const BitVec known(kTableN, true);
  proto::crashm::OwnerLayout layout(kTableN, kTableK);
  auto snap = layout.snapshot(
      BitVec::generate(kTableN, [&] { return rng.flip(0.12); }), kPhase);
  std::vector<sim::PeerId> missing;
  proto::PeerSet heard;
  for (sim::PeerId q = 0; q < kTableK; ++q) {
    if (q % 2 == 0) {
      missing.push_back(q);
      if (q % 4 == 0) heard.insert(q, kTableK);
    } else {
      heard.insert(q, kTableK);
    }
  }
  const proto::crashm::Req2 req(
      kPhase,
      std::make_shared<const proto::crashm::MissingList>(std::move(missing)),
      std::move(snap));
  benchmark::DoNotOptimize(
      proto::crashm::answer(layout, req, &heard, out, known));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::crashm::answer(layout, req, &heard, out, known));
  }
}
BENCHMARK(BM_CrashMultiReq2);

/// One cold crash_multi restart at bench_recovery's shape (n = 2^14, k =
/// 16): the revived peer replays an empty journal, then queries, journals
/// and stores all n bits, pushes its FULL rescue and terminates. The world
/// is built untimed per iteration; the time is the restart handler alone.
void BM_CrashMultiColdRestart(benchmark::State& state) {
  const dr::Config cfg{.n = 1 << 14, .k = 16, .beta = 0.5,
                       .message_bits = 1024, .seed = 3};
  const BitVec input = proto::random_input(cfg.n, cfg.seed);
  const dr::RecoveryState cold;
  std::unique_ptr<dr::World> world;
  for (auto _ : state) {
    state.PauseTiming();
    world = std::make_unique<dr::World>(cfg, input);  // drops the last one
    world->enable_recovery(
        [](const dr::Config&, sim::PeerId) -> std::unique_ptr<dr::Peer> {
          return std::make_unique<proto::CrashMultiPeer>();
        });
    for (sim::PeerId id = 0; id < cfg.k; ++id) {
      world->set_peer(id, std::make_unique<proto::CrashMultiPeer>());
    }
    world->mark_faulty(0);  // a revived peer is a crash victim
    state.ResumeTiming();
    world->peer(0).on_restart(cold);
    benchmark::DoNotOptimize(world->peer(0).output());
  }
}
BENCHMARK(BM_CrashMultiColdRestart);

/// crash_one's stage-1 coverage path at bench_recovery's shape (n = 2^14,
/// k = 16): peer 0 has pushed its block and takes its peers' stage-1
/// pushes, each followed by the coverage test over all k blocks. It gets
/// k - 3 of them, so it is still waiting after the last. The world and the
/// pushes are built untimed per iteration; the time is per k - 3 deliveries.
void BM_CrashOneStage1(benchmark::State& state) {
  const dr::Config cfg{.n = 1 << 14, .k = 16, .beta = 0.5,
                       .message_bits = 1024, .seed = 3};
  const BitVec input = proto::random_input(cfg.n, cfg.seed);
  const proto::SegmentLayout blocks(cfg.n, cfg.k);
  std::vector<sim::PayloadPtr> pushes;
  for (sim::PeerId q = 1; q + 2 < cfg.k; ++q) {
    const Interval b = blocks.bounds(q);
    pushes.push_back(std::make_shared<proto::crash1::Stage1>(
        1, proto::BitChunk::extract(input, IntervalSet::of(b.lo, b.hi))));
  }
  std::unique_ptr<dr::World> world;
  for (auto _ : state) {
    state.PauseTiming();
    world = std::make_unique<dr::World>(cfg, input);  // drops the last one
    for (sim::PeerId id = 0; id < cfg.k; ++id) {
      world->set_peer(id, std::make_unique<proto::CrashOnePeer>());
    }
    dr::Peer& peer = world->peer(0);
    peer.on_start();
    state.ResumeTiming();
    for (std::size_t i = 0; i < pushes.size(); ++i) {
      peer.deliver(sim::Message{.from = static_cast<sim::PeerId>(i + 1),
                                .to = 0,
                                .payload = pushes[i]});
    }
    benchmark::DoNotOptimize(peer.terminated());
  }
}
BENCHMARK(BM_CrashOneStage1);

/// The randomized rows' string bookkeeping at E6's shape (k = 192 peers, 16
/// segments of 1024 bits): every peer reports one segment, two thirds with
/// the segment's true string and the rest with fake strings of their own,
/// as rnd::Reports carrying their hashes; then F(S, tau) of every segment.
/// The time is per bank: 192 records and 16 frequent() calls.
void BM_StringBankRecordFrequent(benchmark::State& state) {
  constexpr std::size_t kPeers = 192, kSegments = 16, kLength = 1024;
  Rng rng(19);
  std::vector<BitVec> truth;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    truth.push_back(rng.fair_bits(kLength));
  }
  std::vector<proto::rnd::Report> reports;
  for (std::size_t p = 0; p < kPeers; ++p) {
    const std::size_t seg = p % kSegments;
    reports.emplace_back(1, seg,
                         p % 3 == 2 ? rng.fair_bits(kLength) : truth[seg]);
  }
  for (auto _ : state) {
    proto::StringBank bank(kSegments);
    for (std::size_t p = 0; p < kPeers; ++p) {
      const proto::rnd::Report& r = reports[p];
      bank.record(r.seg, static_cast<sim::PeerId>(p), r.value, r.hash);
    }
    for (std::size_t seg = 0; seg < kSegments; ++seg) {
      benchmark::DoNotOptimize(bank.frequent(seg, 1));
    }
  }
}
BENCHMARK(BM_StringBankRecordFrequent);

/// Table 1's input array: n fair bits, drawn as proto::random_input does
/// for every world.
void BM_RandomInput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::random_input(n, ++seed));
  }
}
BENCHMARK(BM_RandomInput)->Arg(kTableN);

/// One committee vote vector tallied per iteration, senders first..k-1 in
/// turn; when all have voted the tally restarts from a copy holding the
/// votes of senders 0..first-1. Votes are random bits, or the senders'
/// true values when `honest` (then a bit decides once t+1 members voted).
void run_tally(benchmark::State& state, std::size_t n, std::size_t k,
               std::size_t t, sim::PeerId first, bool honest) {
  const proto::CommitteeAssignment assignment(n, k, t);
  Rng rng(7);
  const BitVec truth = BitVec::generate(n, [&] { return rng.flip(); });
  std::vector<BitVec> votes;
  for (sim::PeerId p = 0; p < k; ++p) {
    BitVec v;
    for (std::size_t b : assignment.bits_of(p)) {
      v.push_back(honest ? truth.get(b) : rng.flip());
    }
    votes.push_back(std::move(v));
  }
  proto::committee::Tally base(assignment, assignment.threshold());
  for (sim::PeerId p = 0; p < first; ++p) base.add(p, votes[p]);
  auto tally = std::make_unique<proto::committee::Tally>(base);
  sim::PeerId from = first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tally->add(from, votes[from]));
    if (++from == k) {
      state.PauseTiming();
      tally = std::make_unique<proto::committee::Tally>(base);
      from = first;
      state.ResumeTiming();
    }
  }
}

/// Table 1's shape (beta = 1/8, so t = 12 and c = 25: about 4,267 bits per
/// vector, three lane words per residue), random votes from the first
/// sender on.
void BM_CommitteeTally(benchmark::State& state) {
  run_tally(state, kTableN, kTableK, 12, 0, false);
}
BENCHMARK(BM_CommitteeTally);

/// Table 1's shape with true votes after 60 senders, as in a run: most
/// bits are decided when the vector arrives.
void BM_CommitteeTallyLate(benchmark::State& state) {
  run_tally(state, kTableN, kTableK, 12, 60, true);
}
BENCHMARK(BM_CommitteeTallyLate);

/// k = 200, t = 40: c = 81 member residues per period, two column blocks
/// of ranks per lane word (about 6,640 bits per vector).
void BM_CommitteeTallyWide(benchmark::State& state) {
  run_tally(state, kTableN, 200, 40, 0, false);
}
BENCHMARK(BM_CommitteeTallyWide);

void BM_FullCrashProtocolRun(benchmark::State& state) {
  for (auto _ : state) {
    proto::Scenario s;
    s.cfg = dr::Config{.n = 1 << 12, .k = 16, .beta = 0.5,
                       .message_bits = 1024,
                       .seed = static_cast<std::uint64_t>(state.iterations())};
    s.honest = proto::make_crash_multi();
    s.crashes = adv::CrashPlan::silent_prefix(8);
    const auto report = proto::run_scenario(s);
    benchmark::DoNotOptimize(report.query_complexity);
  }
}
BENCHMARK(BM_FullCrashProtocolRun)->Unit(benchmark::kMillisecond);

void BM_FullCommitteeRun(benchmark::State& state) {
  for (auto _ : state) {
    proto::Scenario s;
    s.cfg = dr::Config{.n = 1 << 12, .k = 16, .beta = 0.25,
                       .message_bits = 1024,
                       .seed = static_cast<std::uint64_t>(state.iterations())};
    s.honest = proto::make_committee();
    s.byzantine = proto::make_silent_byz();
    s.byz_ids = proto::pick_faulty(s.cfg, s.cfg.max_faulty());
    const auto report = proto::run_scenario(s);
    benchmark::DoNotOptimize(report.query_complexity);
  }
}
BENCHMARK(BM_FullCommitteeRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
