// Experiment A1 — Section 4's blockchain-oracle application: the Oracle
// Data Collection step, naive (Theorem 4.1) vs Download-based (Theorem 4.2).
//
//   naive:    every node reads 2 psi m + 1 FULL sources  ->  per-node cost
//             (2 psi m + 1) V w bits.
//   download: the k nodes run a Download per source      ->  per-node cost
//             m * Q_download(V w) ~ m V w / ((1-2 beta) k) up to logs.
//
// Both must keep every published cell inside the honest sources' range
// (the ODD predicate), with Byzantine sources AND Byzantine oracle nodes.
#include "bench_common.hpp"

#include "oracle/dynamic.hpp"
#include "oracle/odc.hpp"

using namespace asyncdr;
using namespace asyncdr::bench;
using namespace asyncdr::proto;

int main() {
  BenchJson bj("oracle");
  banner("A1 — Oracle Data Collection: naive vs Download-based (§4)",
         "per-node query bits drop by ~(1-2 beta) k; ODD holds in both");

  section("per-node cost vs oracle committee size k (m=8 sources, V=128 "
          "cells, w=16 bits, psi=0.25, beta=0.125)");
  {
    Table table({"k nodes", "naive bits/node", "download bits/node",
                 "improvement", "ODD naive", "ODD download", "dl failures"});
    oracle::SourceBank::Spec spec;
    spec.sources = 8;
    spec.cells = 128;
    spec.value_bits = 16;
    spec.psi = 0.25;
    spec.seed = 31;
    const auto bank = oracle::SourceBank::build(spec);

    for (std::size_t k : {16ul, 32ul, 64ul, 128ul}) {
      const auto naive = oracle::run_naive_odc(bank, k);

      oracle::DownloadOdcOptions options;
      options.node_cfg = dr::Config{.n = 1, .k = k, .beta = 0.125,
                                    .message_bits = 4096, .seed = 77};
      options.honest = make_committee();
      options.byzantine =
          make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll);
      options.byz_nodes = pick_faulty(options.node_cfg,
                                      options.node_cfg.max_faulty());
      const auto dl = oracle::run_download_odc(bank, options);

      table.add(k, naive.max_node_query_bits, dl.max_node_query_bits,
                static_cast<double>(naive.max_node_query_bits) /
                    static_cast<double>(std::max<std::uint64_t>(
                        dl.max_node_query_bits, 1)),
                naive.odd_satisfied, dl.odd_satisfied, dl.download_failures);
      bj.record_values(
          "committee-k", "k=" + std::to_string(k),
          {{"naive_bits_per_node",
            static_cast<double>(naive.max_node_query_bits)},
           {"download_bits_per_node",
            static_cast<double>(dl.max_node_query_bits)},
           {"odd_naive", naive.odd_satisfied ? 1.0 : 0.0},
           {"odd_download", dl.odd_satisfied ? 1.0 : 0.0},
           {"download_failures", static_cast<double>(dl.download_failures)}});
    }
    table.print();
    std::printf("shape: naive per-node cost is flat in k; Download-based\n"
                "cost falls with k toward the committee protocol's 2*beta\n"
                "floor (Thm 4.2; the randomized section below shows the\n"
                "full ~1/((1-2 beta) k) scaling).\n");
  }

  section("randomized Download inside the oracle (k=192, beta=0.125, "
          "vote-stuffing nodes)");
  {
    oracle::SourceBank::Spec spec;
    spec.sources = 6;
    spec.cells = 512;
    spec.value_bits = 16;
    spec.psi = 0.3;
    spec.seed = 13;
    const auto bank = oracle::SourceBank::build(spec);

    const auto naive = oracle::run_naive_odc(bank, 192);

    oracle::DownloadOdcOptions options;
    options.node_cfg = dr::Config{.n = 1, .k = 192, .beta = 0.125,
                                  .message_bits = 16384, .seed = 99};
    options.honest = make_two_cycle(2.0);
    options.byzantine = make_vote_stuffer(2.0, 0);
    options.byz_nodes =
        pick_faulty(options.node_cfg, options.node_cfg.max_faulty());
    const auto dl = oracle::run_download_odc(bank, options);

    Table table({"scheme", "bits/node (max)", "total bits", "ODD",
                 "failures"});
    table.add("naive (Thm 4.1)", naive.max_node_query_bits,
              naive.total_query_bits, naive.odd_satisfied, std::size_t{0});
    table.add("download (Thm 4.2)", dl.max_node_query_bits,
              dl.total_query_bits, dl.odd_satisfied, dl.download_failures);
    table.print();
    bj.record_values(
        "randomized", "naive",
        {{"bits_per_node_max", static_cast<double>(naive.max_node_query_bits)},
         {"total_bits", static_cast<double>(naive.total_query_bits)},
         {"odd", naive.odd_satisfied ? 1.0 : 0.0}});
    bj.record_values(
        "randomized", "download",
        {{"bits_per_node_max", static_cast<double>(dl.max_node_query_bits)},
         {"total_bits", static_cast<double>(dl.total_query_bits)},
         {"odd", dl.odd_satisfied ? 1.0 : 0.0},
         {"failures", static_cast<double>(dl.download_failures)}});
  }

  section("psi sweep: Byzantine sources cannot move the median "
          "(m=16, k=32, committee download)");
  {
    Table table({"psi", "byz sources", "naive bits/node", "download bits/node",
                 "ODD naive", "ODD download"});
    for (double psi : {0.0, 0.125, 0.25, 0.375, 0.45}) {
      oracle::SourceBank::Spec spec;
      spec.sources = 16;
      spec.cells = 64;
      spec.value_bits = 16;
      spec.psi = psi;
      spec.seed = 41;
      const auto bank = oracle::SourceBank::build(spec);
      const auto naive = oracle::run_naive_odc(bank, 32);

      oracle::DownloadOdcOptions options;
      options.node_cfg = dr::Config{.n = 1, .k = 32, .beta = 0.2,
                                    .message_bits = 4096, .seed = 55};
      options.honest = make_committee();
      const auto dl = oracle::run_download_odc(bank, options);

      table.add(psi, bank.byzantine_count(), naive.max_node_query_bits,
                dl.max_node_query_bits, naive.odd_satisfied,
                dl.odd_satisfied);
      bj.record_values(
          "psi", "psi=" + Table::to_cell(psi),
          {{"byz_sources", static_cast<double>(bank.byzantine_count())},
           {"naive_bits_per_node",
            static_cast<double>(naive.max_node_query_bits)},
           {"download_bits_per_node",
            static_cast<double>(dl.max_node_query_bits)},
           {"odd_naive", naive.odd_satisfied ? 1.0 : 0.0},
           {"odd_download", dl.odd_satisfied ? 1.0 : 0.0}});
    }
    table.print();
    std::printf("shape: ODD holds for every psi < 1/2 in both schemes; the\n"
                "naive cost grows with psi (bigger samples), the Download\n"
                "cost reads all m sources once regardless.\n");
  }

  section("the open problem, measured: Download over DYNAMIC data (§4)");
  {
    // Sweep mutation rates over a mid-run mutating source; count which
    // guarantees survive. See src/oracle/dynamic.hpp.
    Table table({"flips during run", "correct (committee)",
                 "agreement (committee)", "correct (Alg. 2)",
                 "agreement (Alg. 2)"});
    const dr::Config c{.n = 2048, .k = 12, .beta = 0.25, .message_bits = 512,
                       .seed = 77};
    constexpr std::size_t kRuns = 8;
    for (std::size_t flips : {0ul, 4ul, 16ul, 64ul}) {
      std::size_t results[2][2] = {};
      for (int protocol = 0; protocol < 2; ++protocol) {
        for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
          dr::Config run_cfg = c;
          run_cfg.seed = seed;
          std::vector<oracle::Mutation> mutations;
          if (flips > 0) {
            mutations = oracle::periodic_mutations(run_cfg, flips, 2.0, seed);
          }
          const auto result = oracle::run_dynamic_download(
              run_cfg,
              protocol == 0 ? make_committee() : make_crash_multi(),
              mutations, /*stagger=*/2.0);
          results[protocol][0] += result.download_guarantee();
          results[protocol][1] += result.agreement_only();
        }
      }
      table.add(flips, std::to_string(results[0][0]) + "/8",
                std::to_string(results[0][1]) + "/8",
                std::to_string(results[1][0]) + "/8",
                std::to_string(results[1][1]) + "/8");
      bj.record_values(
          "dynamic", "flips=" + std::to_string(flips),
          {{"runs", static_cast<double>(kRuns)},
           {"committee_correct", static_cast<double>(results[0][0])},
           {"committee_agreement", static_cast<double>(results[0][1])},
           {"crash_multi_correct", static_cast<double>(results[1][0])},
           {"crash_multi_agreement", static_cast<double>(results[1][1])}});
    }
    table.print();
    std::printf(
        "shape: the static-data guarantee dies with the first mid-run flip\n"
        "in BOTH protocols. The committee even loses internal agreement\n"
        "(members trust their own era-skewed reads); Algorithm 2 still\n"
        "converges — onto a torn array that was never the source's state at\n"
        "any instant. Either way the oracle lies; hence the paper's open\n"
        "problem.\n");
  }
  return 0;
}
