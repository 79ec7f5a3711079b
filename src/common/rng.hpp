// Deterministic random number generation. Every run of the simulator is a
// pure function of (configuration, seed); peers and adversaries each draw
// from independent streams split off a master seed so that adding a consumer
// never perturbs another consumer's stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"

namespace asyncdr {

/// SplitMix64 — used to expand seeds into stream states.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator so it can also be
/// plugged into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// bound must be nonzero.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  bool flip(double p = 0.5);

  /// n fair coin flips: bit i is the i-th flip() call's result, and the
  /// stream advances exactly as n flip() calls would. Packed 64 to a word.
  [[nodiscard]] BitVec fair_bits(std::size_t n);

  /// Derives an independent child stream; deterministic in (this seed, tag).
  [[nodiscard]] Rng split(std::uint64_t tag) const;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `count` distinct values from [0, universe). count <= universe.
  std::vector<std::size_t> sample_without_replacement(std::size_t universe,
                                                      std::size_t count);

 private:
  std::uint64_t seed_;  // retained so split() is a pure function of the seed
  std::uint64_t s_[4];
};

}  // namespace asyncdr
