// The benchmark's three workloads: which worlds each one runs, built from
// the workload seed, and the per-world correctness checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dr/world.hpp"
#include "protocols/runner.hpp"

namespace perfbench {

/// One world of a workload, ready for proto::run_scenario.
struct WorldSpec {
  std::string label;     ///< e.g. "T1/committee", "R2/crashes=4 warm/3"
  std::string protocol;  ///< honest protocol: naive, committee, ...
  asyncdr::proto::Scenario scenario;  ///< latency factory always set
  /// The row's proto::bounds value on Q; 0 when no crash-stop theorem
  /// applies (recovery worlds, where a revived peer re-downloads).
  std::size_t q_bound = 0;
  /// Refuse the degenerate regime (ROADMAP item 1): the run must enter at
  /// least two rounds, query fewer than n bits, and take virtual time.
  bool require_phased = false;
  /// Warm R2 points: index of the cold world with the same crash plan,
  /// whose Q must be strictly larger. -1 elsewhere.
  std::ptrdiff_t cold_twin = -1;
};

struct Workload {
  std::string name;
  std::vector<WorldSpec> worlds;
  /// Campaign workers; 0 = run the worlds in order on the calling thread.
  std::size_t workers = 0;
};

/// Builds the named workload for `seed`. The same seed gives the same
/// worlds. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Crash-multi rounds entered by the nonfaulty peers ("round-<r>" phases).
std::size_t rounds_entered(const asyncdr::dr::RunReport& report);

/// Why world `i` fails its checks; empty when it passes. `reports` holds
/// every world's report of the same pass, in workload order.
std::vector<std::string> check_world(
    const Workload& workload, std::size_t i,
    const std::vector<asyncdr::dr::RunReport>& reports);

}  // namespace perfbench
