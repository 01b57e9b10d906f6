// Tests for the on-wire cost codec and the derived schedule.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/params.h"
#include "core/quantize.h"
#include "netsim/message.h"
#include "netsim/network.h"
#include "workload/generators.h"

namespace dflp::core {
namespace {

TEST(CostCodec, ZeroIsExact) {
  const CostCodec codec(1.0, 0.25);
  EXPECT_EQ(codec.encode(0.0), 0);
  EXPECT_DOUBLE_EQ(codec.decode(0), 0.0);
}

TEST(CostCodec, DecodeOverestimatesByAtMostOnePlusGamma) {
  const CostCodec codec(0.5, 0.25);
  for (double c : {0.5, 0.7, 1.0, 3.14159, 100.0, 1e6, 0.5000001}) {
    const std::int64_t code = codec.encode(c);
    const double back = codec.decode(code);
    EXPECT_GE(back * (1.0 + 0.25) + 1e-12, c) << c;  // not far below
    EXPECT_LE(back, c * (1.0 + 0.25) + 1e-9) << c;   // at most one bucket up
  }
}

TEST(CostCodec, BelowAnchorMapsToBucketOne) {
  const CostCodec codec(2.0, 0.25);
  EXPECT_EQ(codec.encode(0.001), 1);
  EXPECT_EQ(codec.encode(2.0), 1);
  EXPECT_DOUBLE_EQ(codec.decode(1), 2.0);
}

TEST(CostCodec, MonotoneInCost) {
  const CostCodec codec(1.0, 0.25);
  std::int64_t prev = -1;
  for (double c = 1.0; c < 1e9; c *= 1.7) {
    const std::int64_t code = codec.encode(c);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(CostCodec, CodesStayLogarithmic) {
  const CostCodec codec(1.0, 0.25);
  // The code of the top of spread 1e9 must fit comfortably in O(log) bits.
  const std::int64_t code = codec.encode(1e9);
  EXPECT_LT(net::bits_for_value(code), 9);  // ~93 buckets -> 8 bits
}

TEST(CostCodec, RejectsInvalidInput) {
  EXPECT_THROW(CostCodec(0.0, 0.25), CheckError);
  EXPECT_THROW(CostCodec(1.0, 0.0), CheckError);
  const CostCodec codec(1.0, 0.25);
  EXPECT_THROW((void)codec.encode(-1.0), CheckError);
  EXPECT_THROW((void)codec.decode(-2), CheckError);
}

// --------------------------------------------------------------- schedule --

fl::Instance sample_instance(std::uint64_t seed = 1) {
  workload::UniformParams p;
  p.num_facilities = 12;
  p.num_clients = 60;
  p.client_degree = 4;
  return workload::uniform_random(p, seed);
}

TEST(Schedule, SubphasesScaleAsSqrtK) {
  const fl::Instance inst = sample_instance();
  for (const auto& [k, expect_l] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {4, 2}, {9, 3},
                                        {16, 4}, {64, 8}}) {
    MwParams params;
    params.k = k;
    const MwSchedule s = derive_schedule(inst, params);
    EXPECT_EQ(s.subphases, expect_l) << "k=" << k;
  }
}

TEST(Schedule, BetaShrinksAsKGrows) {
  const fl::Instance inst = sample_instance();
  double prev = std::numeric_limits<double>::infinity();
  for (int k : {1, 4, 16, 64, 256}) {
    MwParams params;
    params.k = k;
    const MwSchedule s = derive_schedule(inst, params);
    EXPECT_LE(s.beta, prev + 1e-12) << "k=" << k;
    EXPECT_GE(s.beta, 1.5);
    prev = s.beta;
  }
}

TEST(Schedule, ThresholdsAscendAndStartAtZero) {
  MwParams params;
  params.k = 9;
  const MwSchedule s = derive_schedule(sample_instance(), params);
  ASSERT_GE(s.thresholds.size(), 2u);
  EXPECT_DOUBLE_EQ(s.thresholds.front(), 0.0);
  for (std::size_t i = 1; i < s.thresholds.size(); ++i)
    EXPECT_GT(s.thresholds[i], s.thresholds[i - 1]);
  EXPECT_EQ(s.levels, static_cast<int>(s.thresholds.size()));
}

TEST(Schedule, ThresholdLadderCoversStarRatioRange) {
  const fl::Instance inst = sample_instance();
  MwParams params;
  params.k = 4;
  const MwSchedule s = derive_schedule(inst, params);
  const auto& profile = inst.cost_profile();
  const double deg = inst.max_facility_degree();
  // The top rung must dominate any possible star ratio.
  EXPECT_GE(s.thresholds.back(), profile.max_value * (deg + 1) / s.beta);
}

TEST(Schedule, BitBudgetMatchesNetworkSize) {
  const fl::Instance inst = sample_instance();
  MwParams params;
  const MwSchedule s = derive_schedule(inst, params);
  EXPECT_EQ(s.num_network_nodes, 72);
  EXPECT_EQ(s.bit_budget, net::congest_bit_budget(72));
}

TEST(Schedule, RoundingPhasesAreLogarithmic) {
  const fl::Instance small = sample_instance();
  workload::UniformParams big_p;
  big_p.num_facilities = 100;
  big_p.num_clients = 4000;
  const fl::Instance big = workload::uniform_random(big_p, 1);
  MwParams params;
  const int small_phases = derive_schedule(small, params).rounding_phases;
  const int big_phases = derive_schedule(big, params).rounding_phases;
  EXPECT_GT(big_phases, small_phases);
  EXPECT_LT(big_phases, 4 * small_phases);
}

TEST(Schedule, SubphaseOverrideHonored) {
  MwParams params;
  params.k = 16;
  params.subphases_override = 1;
  const MwSchedule s = derive_schedule(sample_instance(), params);
  EXPECT_EQ(s.subphases, 1);
}

TEST(Schedule, RejectsNonPositiveK) {
  MwParams params;
  params.k = 0;
  EXPECT_THROW(derive_schedule(sample_instance(), params), CheckError);
}

TEST(Schedule, YScaleSufficientForLowStart) {
  // beta^(-y_scale) <= 1/(m * rho * (deg+1)): the first raise must not
  // already overshoot the LP mass.
  const fl::Instance inst = sample_instance();
  MwParams params;
  params.k = 9;
  const MwSchedule s = derive_schedule(inst, params);
  const double m = inst.num_facilities();
  const double rho = inst.cost_profile().rho;
  const double deg = inst.max_facility_degree();
  EXPECT_LE(std::pow(s.beta, -s.y_scale), 1.0 / (m * rho * (deg + 1)) + 1e-12);
}

}  // namespace
}  // namespace dflp::core
