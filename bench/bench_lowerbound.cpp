// Experiments E3 (Theorem 3.1) and E4 (Theorem 3.2) — the Byzantine-
// majority lower bounds, run as executable attacks.
//
//   E3: the deterministic two-world construction against every
//       sub-n-query deterministic protocol we have (and the naive control,
//       which is exactly tight and hence unattackable).
//   E4: the randomized planted-bit attack against the 2-cycle protocol
//       forced into the majority regime with optimistic parameters;
//       measured success rate vs the theorem's 1 - q/n floor, as the
//       protocol's query budget q sweeps.
#include "bench_common.hpp"

using namespace asyncdr;
using namespace asyncdr::bench;
using namespace asyncdr::proto;

int main() {
  BenchJson bj("lowerbound");
  banner("E3/E4 — Byzantine-majority lower bounds (Thms 3.1, 3.2)",
         "any Download protocol with Q < n fails once beta >= 1/2");

  section("E3: deterministic two-world attack (n=4096, k=10, beta=1/2)");
  {
    Table table({"victim protocol", "victim q (probe)", "attackable",
                 "attack succeeded", "planted bit", "note"});
    struct Victim {
      std::string name;
      PeerFactory factory;
    };
    for (const auto& victim : std::vector<Victim>{
             {"Algorithm 2 (crash-optimal)", make_crash_multi()},
             {"Algorithm 1 (one-crash)", make_crash_one()},
             {"naive (Q = n, the tight case)", make_naive()}}) {
      const dr::Config c{.n = 4096, .k = 10, .beta = 0.5,
                         .message_bits = 1024, .seed = 3};
      const auto result = run_deterministic_majority_attack(c, victim.factory);
      table.add(victim.name, result.victim_probe_queries, result.attackable,
                result.succeeded, result.planted_bit, result.detail);
      bj.record_values(
          "E3", victim.name,
          {{"victim_q", static_cast<double>(result.victim_probe_queries)},
           {"attackable", result.attackable ? 1.0 : 0.0},
           {"succeeded", result.succeeded ? 1.0 : 0.0},
           {"planted_bit", static_cast<double>(result.planted_bit)}});
    }
    table.print();
    std::printf("shape: every protocol with q < n falls to the two-world\n"
                "indistinguishability argument; only Q = n survives — the\n"
                "Theorem 3.1 dichotomy.\n");
  }

  section("E3 across beta >= 1/2 (Algorithm 2 victim, k=16)");
  {
    Table table({"beta", "t", "|B| corrupted", "|S| delayed", "victim q",
                 "succeeded"});
    for (double beta : {0.5, 0.625, 0.75, 0.875}) {
      const dr::Config c{.n = 2048, .k = 16, .beta = beta,
                         .message_bits = 512, .seed = 5};
      const auto result = run_deterministic_majority_attack(c, make_crash_multi());
      table.add(beta, c.max_faulty(), c.max_faulty(),
                c.k - c.max_faulty() - 1, result.victim_probe_queries,
                result.succeeded);
      bj.record_values(
          "E3-beta", "beta=" + Table::to_cell(beta),
          {{"t", static_cast<double>(c.max_faulty())},
           {"victim_q", static_cast<double>(result.victim_probe_queries)},
           {"succeeded", result.succeeded ? 1.0 : 0.0}});
    }
    table.print();
    std::printf("note: as beta -> 1 the victim's quorum shrinks toward\n"
                "itself and Algorithm 2 degrades to querying everything —\n"
                "exactly the only defense Theorem 3.1 leaves.\n");
  }

  section("E4: randomized attack success vs query budget (n=4096, k=24)");
  {
    Table table({"segments s", "mean victim q", "q/n", "success measured",
                 "floor 1-q/n", "trials"});
    const dr::Config c{.n = 4096, .k = 24, .beta = 0.5,
                       .message_bits = 4096, .seed = 17};
    for (std::size_t segments : {2ul, 4ul, 8ul}) {
      RandParams optimistic;  // what the victim wrongly believes
      optimistic.segments = segments;
      optimistic.tau = 1;
      optimistic.eta = 4;
      const auto stats = run_randomized_majority_attack(
          c, make_two_cycle_with(optimistic), 32);
      table.add(segments, stats.mean_victim_queries,
                stats.mean_victim_queries / static_cast<double>(c.n),
                stats.success_rate(), stats.predicted_floor(c.n),
                stats.trials);
      bj.record_values(
          "E4", "s=" + std::to_string(segments),
          {{"trials", static_cast<double>(stats.trials)},
           {"succeeded", static_cast<double>(stats.succeeded)},
           {"victim_unterminated",
            static_cast<double>(stats.victim_unterminated)},
           {"victim_q_mean", stats.mean_victim_queries},
           {"success_rate", stats.success_rate()},
           {"floor", stats.predicted_floor(c.n)}});
    }
    table.print();
    std::printf("shape: success tracks the 1 - q/n floor of Theorem 3.2 —\n"
                "cheaper victims fail more often, and driving failure to 0\n"
                "requires q -> n, i.e. Q = Omega(n). (Runs land slightly\n"
                "below the floor because our implementation's fallback\n"
                "re-queries candidate-less segments, which covers the\n"
                "planted bit more often than q uniform queries would.)\n");
  }
  return 0;
}
