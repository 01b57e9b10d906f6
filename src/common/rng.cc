#include "common/rng.h"

#include <cmath>

namespace dflp {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  std::uint64_t s = mix64(seed ^ (a + 0x9E3779B97F4A7C15ULL));
  return mix64(s ^ (b + 0xBF58476D1CE4E5B9ULL));
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro requires a nonzero state; SplitMix64 cannot emit four zero words
  // from any seed, but guard anyway for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t salt) noexcept {
  // Derive the child's seed from fresh parent output mixed with the salt so
  // distinct salts (e.g. node ids) give distinct, decorrelated streams.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(mix64(a ^ rotl(b, 31) ^ mix64(salt)));
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  if (bound == 0) return 0;  // degenerate; callers check, keep noexcept
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() noexcept {
  // 53 random bits into the mantissa: uniform over [0,1) with full double
  // resolution.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal() noexcept {
  // Box–Muller; avoid log(0) by nudging u1 away from zero.
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  constexpr double two_pi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

}  // namespace dflp
