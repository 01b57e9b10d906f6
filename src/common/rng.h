// Deterministic, splittable pseudo-randomness.
//
// Every randomized component in DFLP (workload generators, the simulator's
// delivery shuffle, the distributed algorithms' per-node coins) draws from an
// explicitly seeded `Rng`. There is no global RNG: determinism from a seed is
// a hard requirement so that every experiment and every simulated execution
// is reproducible bit-for-bit.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64
// so that small or correlated user seeds still produce well-mixed states.
// `split()` derives an independent child stream, which is how the simulator
// hands each node its own private coin sequence.
#pragma once

#include <array>
#include <cstdint>

namespace dflp {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of a single value (one SplitMix64 round).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Deterministic seed for a derived stream identified by (seed, a, b) —
/// e.g. the round engine's per-(node, round) shuffle and fault streams.
/// Pure function of its inputs: the draw sequence of such a stream is
/// independent of execution order and other nodes.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t seed,
                                               std::uint64_t a,
                                               std::uint64_t b) noexcept;

/// xoshiro256++ pseudo-random generator. Draw through its own helpers
/// below, which are portable across standard libraries, unlike std
/// distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Derive an independent child generator. The child's stream is a
  /// deterministic function of (this state, salt) but statistically
  /// uncorrelated with the parent's subsequent output.
  [[nodiscard]] Rng split(std::uint64_t salt) noexcept;

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// rejection method: unbiased.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Standard normal via Box–Muller (no state caching; two uniforms/call).
  [[nodiscard]] double normal() noexcept;

  /// Fisher–Yates shuffle of a random-access range.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) noexcept {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = uniform_u64(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace dflp
