#include "workloads.hpp"

#include <stdexcept>

#include "protocols/bounds.hpp"

namespace perfbench {

using namespace asyncdr;
using namespace asyncdr::proto;

namespace {

// ---- table1-uniform: the paper's Table 1 on the default schedule ----
//
// bench_table1's five rows at k=96, one world per row. bench_table1 indexes
// its repeats by `rep`; the workload seed plays that role, so seed 0 runs
// exactly bench_table1's first repeat of each row. The schedule is the
// default UniformLatency(0.05, 1), given through proto::uniform_latency so
// the traced run can wrap it: every recipient of a broadcast gets its own
// arrival time, which loads the engine heap and per-recipient delivery.

constexpr std::size_t kT1N = 1 << 14;
constexpr std::size_t kT1K = 96;

dr::Config t1_config(double beta, std::uint64_t seed) {
  return dr::Config{
      .n = kT1N, .k = kT1K, .beta = beta, .message_bits = 4096, .seed = seed};
}

Workload table1_uniform(std::uint64_t seed) {
  struct Row {
    const char* protocol;
    double beta;
    PeerFactory honest;
    PeerFactory byzantine;  // null: random crashes instead
  };
  const Row rows[] = {
      {"naive", 0.75, make_naive(), make_garbage_byz()},
      {"committee", 0.125, make_committee(),
       make_committee_liar(CommitteeLiarPeer::Mode::kFlipAll)},
      {"two_cycle", 0.125, make_two_cycle(1.5, 3.0), make_vote_stuffer(1.5, 0)},
      {"multi_cycle", 0.125, make_multi_cycle(1.5, 3.0),
       make_vote_stuffer(1.5, 0)},
      {"crash_multi", 0.5, make_crash_multi(), nullptr},
  };
  Workload w{.name = "table1-uniform", .worlds = {}, .workers = 0};
  for (const Row& row : rows) {
    WorldSpec spec;
    spec.label = std::string("T1/") + row.protocol;
    spec.protocol = row.protocol;
    Scenario& s = spec.scenario;
    s.cfg = t1_config(row.beta, 11 * (seed + 1));
    s.honest = row.honest;
    s.latency = uniform_latency();
    const std::size_t t = s.cfg.max_faulty();
    if (row.byzantine) {
      s.byzantine = row.byzantine;
      s.byz_ids = pick_faulty(s.cfg, t, seed);
    } else {
      Rng rng(seed * 31 + 7);
      s.crashes = adv::CrashPlan::random(s.cfg, rng, t, 10.0);
    }
    const RandParams rp = RandParams::derive(s.cfg, 1.5, 3.0);
    const std::string p = row.protocol;
    spec.q_bound = p == "naive"         ? bounds::naive_q(s.cfg)
                   : p == "committee"   ? bounds::committee_q(s.cfg)
                   : p == "two_cycle"   ? bounds::two_cycle_q(s.cfg, rp)
                   : p == "multi_cycle" ? bounds::multi_cycle_q(s.cfg, rp)
                                        : bounds::crash_multi_q(s.cfg);
    w.worlds.push_back(std::move(spec));
  }
  return w;
}

// ---- crash-fixed-k1024: the non-degenerate S1 shape ----
//
// bench_scale's k=1024 point (seed 500 + k, shifted by the workload seed):
// Algorithm 2 under a silent-prefix crash plan and FixedLatency(1). Every
// broadcast collapses to one arrival bucket on the shared flyweight link,
// so payload interning and hashing and the peer arena dominate instead of
// the heap. direct_threshold = max(n/k, 2k) = 2048 < n keeps it phased.

Workload crash_fixed_k1024(std::uint64_t seed) {
  WorldSpec spec;
  spec.label = "S1/k=1024";
  spec.protocol = "crash_multi";
  Scenario& s = spec.scenario;
  s.cfg = dr::Config{.n = 1 << 13, .k = 1024, .beta = 0.125,
                     .message_bits = 1024, .seed = 1524 + seed};
  s.honest = make_crash_multi();
  s.crashes = adv::CrashPlan::silent_prefix(s.cfg.max_faulty());
  s.latency = fixed_latency(1.0);
  spec.q_bound = bounds::crash_multi_q(s.cfg);
  spec.require_phased = true;
  Workload w{.name = "crash-fixed-k1024", .worlds = {}, .workers = 0};
  w.worlds.push_back(std::move(spec));
  return w;
}

// ---- recovery-campaign: bench_recovery's R1/R2/R3 grid ----
//
// 45 small worlds (k=16, n=2^14) fanned over campaign::Campaign, warm and
// cold, so the weight sits on per-world set-up and teardown, journal
// appends and replays, the restart path and campaign scheduling. The
// workload seed shifts bench_recovery's repeat index by kRepeats per seed;
// seed 0 is bench_recovery's grid.

constexpr std::size_t kRepeats = 5;
constexpr std::size_t kStormCounts[] = {2, 4, 8};

dr::Config recovery_config(double beta, std::uint64_t seed) {
  return dr::Config{.n = 1 << 14, .k = 16, .beta = beta,
                    .message_bits = 1024, .seed = seed};
}

WorldSpec recovery_world(std::string label, std::string protocol,
                         dr::Config cfg, bool cold) {
  WorldSpec spec;
  spec.label = std::move(label);
  spec.protocol = protocol;
  Scenario& s = spec.scenario;
  s.cfg = cfg;
  s.honest = protocol == "crash_one" ? make_crash_one() : make_crash_multi();
  s.recovery.factory = s.honest;
  s.recovery.options.cold_restart = cold;
  s.latency = uniform_latency();
  return spec;
}

Workload recovery_campaign(std::uint64_t seed) {
  Workload w{.name = "recovery-campaign", .worlds = {}, .workers = 2};
  const std::uint64_t rep0 = seed * kRepeats;
  for (const bool cold : {false, true}) {
    for (std::uint64_t rep = rep0; rep < rep0 + kRepeats; ++rep) {
      WorldSpec spec = recovery_world(
          std::string("R1/") + (cold ? "cold/" : "warm/") + std::to_string(rep),
          "crash_one", recovery_config(1.0 / 16, 500 + rep), cold);
      const sim::PeerId victim = rep % 16;
      spec.scenario.crashes.add_at_time(victim, 2.5);
      spec.scenario.crashes.add_restart_after(victim, 3.0);
      w.worlds.push_back(std::move(spec));
    }
  }
  for (const std::size_t crashes : kStormCounts) {
    for (const bool cold : {false, true}) {
      for (std::uint64_t rep = rep0; rep < rep0 + kRepeats; ++rep) {
        WorldSpec spec = recovery_world(
            "R2/crashes=" + std::to_string(crashes) +
                (cold ? " cold/" : " warm/") + std::to_string(rep),
            "crash_multi", recovery_config(0.5, 600 + rep), cold);
        Rng rng(rep * 17 + crashes);
        spec.scenario.crashes = adv::CrashPlan::restart_storm(
            spec.scenario.cfg, rng, crashes, /*spacing=*/1.0,
            /*storm_at=*/static_cast<sim::Time>(crashes) + 2.0,
            /*window=*/2.0);
        // Warm points precede their cold twins by one block of repeats.
        if (!cold) {
          spec.cold_twin =
              static_cast<std::ptrdiff_t>(w.worlds.size() + kRepeats);
        }
        w.worlds.push_back(std::move(spec));
      }
    }
  }
  for (std::uint64_t rep = rep0; rep < rep0 + kRepeats; ++rep) {
    WorldSpec spec =
        recovery_world("R3/flapping warm/" + std::to_string(rep), "crash_multi",
                       recovery_config(0.5, 700 + rep), false);
    Rng rng(rep * 29 + 3);
    spec.scenario.crashes =
        adv::CrashPlan::flapping(spec.scenario.cfg, rng, /*count=*/2,
                                 /*cycles=*/2, /*period=*/6.0,
                                 /*up_delay=*/1.5, /*jitter=*/0.5);
    w.worlds.push_back(std::move(spec));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "table1-uniform") return table1_uniform(seed);
  if (name == "crash-fixed-k1024") return crash_fixed_k1024(seed);
  if (name == "recovery-campaign") return recovery_campaign(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::size_t rounds_entered(const dr::RunReport& report) {
  std::size_t rounds = 0;
  for (const dr::RunReport::PhaseBreakdown& p : report.phases) {
    if (p.name.rfind("round-", 0) == 0) ++rounds;
  }
  return rounds;
}

std::vector<std::string> check_world(
    const Workload& workload, std::size_t i,
    const std::vector<dr::RunReport>& reports) {
  const WorldSpec& spec = workload.worlds[i];
  const dr::RunReport& r = reports[i];
  std::vector<std::string> why;
  if (!r.ok()) why.push_back("not ok: " + r.to_string());
  if (spec.q_bound > 0 && r.query_complexity > spec.q_bound) {
    why.push_back("Q=" + std::to_string(r.query_complexity) + " > bound " +
                  std::to_string(spec.q_bound));
  }
  if (spec.require_phased) {
    const std::size_t rounds = rounds_entered(r);
    if (rounds < 2) {
      why.push_back("degenerate: " + std::to_string(rounds) + " round(s)");
    }
    if (r.query_complexity >= spec.scenario.cfg.n) {
      why.push_back("degenerate: Q >= n");
    }
    if (r.time_complexity <= 0) why.push_back("degenerate: T = 0");
  }
  if (spec.cold_twin >= 0) {
    const dr::RunReport& cold =
        reports[static_cast<std::size_t>(spec.cold_twin)];
    if (r.query_complexity >= cold.query_complexity) {
      why.push_back("warm Q=" + std::to_string(r.query_complexity) +
                    " >= cold Q=" + std::to_string(cold.query_complexity));
    }
  }
  return why;
}

}  // namespace perfbench
