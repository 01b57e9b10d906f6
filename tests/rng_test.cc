#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace dflp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r());
  EXPECT_GT(seen.size(), 95u);  // no obvious degeneracy
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child_a = parent.split(0);
  Rng child_b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (child_a() == child_b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(7);
  Rng p2(7);
  Rng c1 = p1.split(42);
  Rng c2 = p2.split(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, UniformU64RespectsBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng r(8);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i)
    ++counts[r.uniform_u64(kBuckets)];
  // Each bucket expects 10000; allow 5% relative slack (>> 3 sigma).
  for (int c : counts) EXPECT_NEAR(c, kSamples / kBuckets, 500);
}

TEST(Rng, Uniform01InRangeWithGoodMean) {
  Rng r(10);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-1.0));
  EXPECT_TRUE(r.bernoulli(2.0));
}

TEST(Rng, NormalMeanAndVariance) {
  Rng r(12);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, ShufflePreservesElementsAndVaries) {
  Rng r(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v.begin(), v.end());
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
  // Over many shuffles the first element should vary.
  std::set<int> firsts;
  for (int i = 0; i < 100; ++i) {
    r.shuffle(v.begin(), v.end());
    firsts.insert(v.front());
  }
  EXPECT_GT(firsts.size(), 4u);
}

TEST(Rng, Mix64AvalanchesSingleBitFlips) {
  // Flipping one input bit should flip ~32 of 64 output bits.
  const std::uint64_t base = mix64(0x1234567890ABCDEFULL);
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t other = mix64(0x1234567890ABCDEFULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(base ^ other);
  }
  const double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

}  // namespace
}  // namespace dflp
