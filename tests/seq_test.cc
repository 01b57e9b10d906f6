// Tests for the centralized baselines: feasibility everywhere, guarantee
// bounds on the families they were designed for, exactness on hand-built
// instances, and brute force as the arbiter.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/dual_ascent.h"
#include "oracles.h"
#include "seq/brute_force.h"
#include "seq/greedy.h"
#include "seq/jain_vazirani.h"
#include "seq/jms.h"
#include "seq/mettu_plaxton.h"
#include "seq/trivial.h"
#include "workload/generators.h"

namespace dflp::seq {
namespace {

fl::Instance small_uniform(std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = 7;
  p.num_clients = 18;
  p.client_degree = 3;
  return workload::uniform_random(p, seed);
}

// ----------------------------------------------------------- brute force --

TEST(BruteForce, MatchesHandComputedOptimum) {
  // F0 cost 10 serves both clients at 1; F1 cost 1 serves c0 at 1; F2 cost
  // 1 serves c1 at 1. OPT = open F1+F2 = 1+1+1+1 = 4.
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(10.0);
  const auto f1 = b.add_facility(1.0);
  const auto f2 = b.add_facility(1.0);
  const auto c0 = b.add_client();
  const auto c1 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f0, c1, 1.0);
  b.connect(f1, c0, 1.0);
  b.connect(f2, c1, 1.0);
  const fl::Instance inst = b.build();
  const auto r = brute_force_solve(inst);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->optimum, 4.0, 1e-12);
  EXPECT_TRUE(r->solution.is_open(f1));
  EXPECT_TRUE(r->solution.is_open(f2));
  EXPECT_FALSE(r->solution.is_open(f0));
}

TEST(BruteForce, RefusesLargeFacilityCounts) {
  const fl::Instance inst = workload::greedy_tight(25);
  EXPECT_FALSE(brute_force_solve(inst, 20).has_value());
}

TEST(BruteForce, SolutionCostMatchesReportedOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const auto r = brute_force_solve(inst);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->solution.is_feasible(inst));
    EXPECT_NEAR(r->solution.cost(inst), r->optimum, 1e-9);
  }
}

// ---------------------------------------------------------------- greedy --

TEST(Greedy, FeasibleOnEveryFamily) {
  for (const auto family :
       {workload::Family::kUniform, workload::Family::kEuclidean,
        workload::Family::kPowerLaw, workload::Family::kGreedyTight,
        workload::Family::kStar}) {
    const fl::Instance inst = workload::make_family_instance(family, 50, 3);
    const GreedyResult g = greedy_solve(inst);
    std::string why;
    EXPECT_TRUE(g.solution.is_feasible(inst, &why))
        << workload::family_name(family) << ": " << why;
    EXPECT_GT(g.iterations, 0);
  }
}

TEST(Harmonic, ExactSmall) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(10), 2.9289682539682538, 1e-12);
}

TEST(Harmonic, AsymptoticAgreesWithExactAtBoundary) {
  // Exact sum at 4096 vs asymptotic expansion at 4097: must be within 1e-9.
  double exact = 0.0;
  for (int i = 1; i <= 4097; ++i) exact += 1.0 / i;
  EXPECT_NEAR(harmonic(4097), exact, 1e-9);
}

TEST(Greedy, WithinHnOfOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const auto brute = brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    const GreedyResult g = greedy_solve(inst);
    const double hn = harmonic(static_cast<std::uint64_t>(inst.num_clients()));
    EXPECT_LE(g.solution.cost(inst), hn * brute->optimum * (1.0 + 1e-9))
        << "seed " << seed;
  }
}

TEST(Greedy, OptimalWhenSingleFacility) {
  fl::InstanceBuilder b;
  const auto f = b.add_facility(4.0);
  for (int j = 0; j < 5; ++j) b.connect(f, b.add_client(), 1.0);
  const fl::Instance inst = b.build();
  const GreedyResult g = greedy_solve(inst);
  EXPECT_NEAR(g.solution.cost(inst), 9.0, 1e-12);
  EXPECT_EQ(g.iterations, 1);
}

TEST(Greedy, PrefersSharedFacilityWhenCheaper) {
  // Shared facility cost 2, serves both at 0; singletons cost 1.5 each.
  // Greedy's best star: (2+0+0)/2 = 1 beats (1.5)/1.
  fl::InstanceBuilder b;
  const auto shared = b.add_facility(2.0);
  const auto s0 = b.add_facility(1.5);
  const auto s1 = b.add_facility(1.5);
  const auto c0 = b.add_client();
  const auto c1 = b.add_client();
  b.connect(shared, c0, 0.0);
  b.connect(shared, c1, 0.0);
  b.connect(s0, c0, 0.0);
  b.connect(s1, c1, 0.0);
  const fl::Instance inst = b.build();
  const GreedyResult g = greedy_solve(inst);
  EXPECT_TRUE(g.solution.is_open(shared));
  EXPECT_NEAR(g.solution.cost(inst), 2.0, 1e-12);
}

TEST(Greedy, BestStarRatioMatchesDefinition) {
  const fl::Instance inst = small_uniform(4);
  std::vector<std::uint8_t> covered(
      static_cast<std::size_t>(inst.num_clients()), 0);
  int star = 0;
  const double r = best_star_ratio(inst, 0, covered, false, &star);
  ASSERT_GT(star, 0);
  // Recompute by hand for facility 0.
  double num = inst.opening_cost(0);
  double best = std::numeric_limits<double>::infinity();
  int size = 0;
  for (const fl::FacilityEdge& e : inst.facility_edges(0)) {
    num += e.cost;
    ++size;
    best = std::min(best, num / size);
  }
  EXPECT_NEAR(r, best, 1e-12);
}

// ------------------------------------------------------------------- JV --

TEST(JainVazirani, FeasibleAndDualBounded) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const JvResult jv = jain_vazirani_solve(inst);
    EXPECT_TRUE(jv.solution.is_feasible(inst)) << "seed " << seed;
    const auto brute = brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    EXPECT_LE(jv.dual_lower_bound, brute->optimum + 1e-6);
    EXPECT_GE(jv.solution.cost(inst), brute->optimum - 1e-9);
  }
}

TEST(JainVazirani, Within3xOnMetricInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::EuclideanParams p;
    p.num_facilities = 6;
    p.num_clients = 14;
    const fl::Instance inst = workload::euclidean(p, seed).instance;
    const auto brute = brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    const JvResult jv = jain_vazirani_solve(inst);
    EXPECT_LE(jv.solution.cost(inst), 3.0 * brute->optimum * (1 + 1e-9))
        << "seed " << seed;
  }
}

TEST(JainVazirani, TemporarilyOpenCountIsPositive) {
  const fl::Instance inst = small_uniform(2);
  const JvResult jv = jain_vazirani_solve(inst);
  EXPECT_GT(jv.temporarily_open, 0);
  EXPECT_LE(jv.temporarily_open, inst.num_facilities());
}

// ------------------------------------------------------------------- MP --

TEST(MettuPlaxton, RadiusSolvesDefiningEquation) {
  const fl::Instance inst = small_uniform(6);
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    const double r = mp_radius(inst, i);
    double paid = 0.0;
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      paid += std::max(0.0, r - e.cost);
    EXPECT_NEAR(paid, inst.opening_cost(i), 1e-7) << "facility " << i;
  }
}

TEST(MettuPlaxton, ZeroOpeningCostGivesCheapestEdgeRadius) {
  fl::InstanceBuilder b;
  const auto f = b.add_facility(0.0);
  const auto c = b.add_client();
  b.connect(f, c, 4.0);
  const fl::Instance inst = b.build();
  EXPECT_NEAR(mp_radius(inst, 0), 4.0, 1e-12);
}

TEST(MettuPlaxton, FeasibleAndWithin3xOnMetric) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::EuclideanParams p;
    p.num_facilities = 6;
    p.num_clients = 14;
    const fl::Instance inst = workload::euclidean(p, seed).instance;
    const MpResult mp = mettu_plaxton_solve(inst);
    EXPECT_TRUE(mp.solution.is_feasible(inst)) << "seed " << seed;
    const auto brute = brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    EXPECT_LE(mp.solution.cost(inst), 3.0 * brute->optimum * (1 + 1e-9))
        << "seed " << seed;
  }
}

TEST(MettuPlaxton, FeasibleOnSparseNonMetric) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const MpResult mp = mettu_plaxton_solve(inst);
    EXPECT_TRUE(mp.solution.is_feasible(inst)) << "seed " << seed;
  }
}

// ------------------------------------------------------------------ JMS --

TEST(Jms, FeasibleAndNeverWorseThanNearTrivial) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const JmsResult jms = jms_solve(inst);
    EXPECT_TRUE(jms.solution.is_feasible(inst)) << "seed " << seed;
    EXPECT_LE(jms.solution.cost(inst),
              open_all_solve(inst).cost(inst) + 1e-9);
  }
}

TEST(Jms, Within2xOnMetricInstances) {
  // JMS guarantees 1.861 on metric instances; assert the round 2.0.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::EuclideanParams p;
    p.num_facilities = 6;
    p.num_clients = 14;
    const fl::Instance inst = workload::euclidean(p, seed).instance;
    const auto brute = brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    const JmsResult jms = jms_solve(inst);
    EXPECT_LE(jms.solution.cost(inst), 2.0 * brute->optimum * (1 + 1e-9))
        << "seed " << seed;
  }
}

TEST(Jms, RebatesBeatPlainGreedyOnSwitchInstance) {
  // Instance engineered so plain greedy commits early and JMS can undercut
  // via switching: at minimum JMS must not be worse.
  const fl::Instance inst = workload::make_family_instance(
      workload::Family::kGreedyTight, 32, 1);
  const double greedy_cost = greedy_solve(inst).solution.cost(inst);
  const double jms_cost = jms_solve(inst).solution.cost(inst);
  EXPECT_LE(jms_cost, greedy_cost + 1e-9);
}

// -------------------------------------------------------------- trivial --

TEST(Trivial, OpenAllFeasibleAndPrunes) {
  const fl::Instance inst = small_uniform(3);
  const fl::IntegralSolution sol = open_all_solve(inst);
  EXPECT_TRUE(sol.is_feasible(inst));
  EXPECT_LE(sol.num_open(), inst.num_facilities());
}

TEST(Trivial, NearestFacilityFeasible) {
  const fl::Instance inst = small_uniform(3);
  const fl::IntegralSolution sol = nearest_facility_solve(inst);
  EXPECT_TRUE(sol.is_feasible(inst));
  // Connection part is optimal by construction; total cost above LB.
  EXPECT_GE(sol.cost(inst), lp::cheapest_connection_bound(inst) - 1e-9);
}

TEST(Trivial, AllBaselinesBoundedByOpenAllOnUniform) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const fl::Instance inst = small_uniform(seed);
    const double open_all = open_all_solve(inst).cost(inst);
    EXPECT_LE(greedy_solve(inst).solution.cost(inst), open_all + 1e-9);
    EXPECT_LE(nearest_facility_solve(inst).cost(inst), open_all + 1e-9);
  }
}

}  // namespace
}  // namespace dflp::seq
