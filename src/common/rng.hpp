// Small, fast, deterministic PRNGs for simulation (no <random> in hot paths).
#pragma once

#include <cstdint>
#include <cmath>

namespace sldf {

/// SplitMix64: used for seeding and cheap one-shot hashes.
struct SplitMix64 {
  std::uint64_t state;

  explicit constexpr SplitMix64(std::uint64_t seed) : state(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// xoshiro256** — the workhorse generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5d1f00d5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t n) {
    if (n <= 1) return 0;
    const auto x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Checkpoint walk (see sim/checkpoint.hpp): the full xoshiro256**
  /// state, so a restored simulation continues the exact stream it left.
  template <typename Io>
  void checkpoint(Io& io) {
    io.pod(s_);
  }

  /// Number of failures before the next success of a Bernoulli(p) process.
  /// Used for geometric-skip injection scheduling: the next arrival is
  /// `geometric_skip(p) + 1` cycles away.
  std::uint64_t geometric_skip(double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return ~0ULL;
    const double u = uniform();
    const double g = std::floor(std::log1p(-u) / std::log1p(-p));
    return g >= 9e18 ? ~0ULL : static_cast<std::uint64_t>(g);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace sldf
