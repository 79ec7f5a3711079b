#include "common/rng.hpp"

#include <bit>

#include "common/check.hpp"

namespace asyncdr {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  ASYNCDR_EXPECTS(bound != 0);
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  ASYNCDR_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ASYNCDR_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::flip(double p) { return uniform01() < p; }

BitVec Rng::fair_bits(std::size_t n) {
  // flip() is uniform01() < 0.5 with uniform01() = (x >> 11) * 2^-53, so it
  // comes up true exactly when bit 63 of x = next() is clear.
  return BitVec::generate_words(n, [this](std::size_t count) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < count; ++j) word |= (~next() >> 63) << j;
    return word;
  });
}

Rng Rng::split(std::uint64_t tag) const {
  std::uint64_t sm = seed_ ^ (0x6a09e667f3bcc909ull + tag * 0x3c6ef372fe94f82bull);
  return Rng(splitmix64(sm));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t universe,
                                                         std::size_t count) {
  ASYNCDR_EXPECTS(count <= universe);
  // Partial Fisher–Yates over an index array; fine at simulation scales.
  std::vector<std::size_t> idx(universe);
  for (std::size_t i = 0; i < universe; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(universe - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

}  // namespace asyncdr
