// Tests for the instance generators: validity, determinism, and that each
// family actually has the property it exists to provide.
#include <gtest/gtest.h>

#include <cmath>

#include "fl/serialize.h"
#include "seq/greedy.h"
#include "seq/brute_force.h"
#include "workload/generators.h"

namespace dflp::workload {
namespace {

TEST(Uniform, ShapeAndDegrees) {
  UniformParams p;
  p.num_facilities = 10;
  p.num_clients = 50;
  p.client_degree = 4;
  const fl::Instance inst = uniform_random(p, 1);
  EXPECT_EQ(inst.num_facilities(), 10);
  EXPECT_EQ(inst.num_clients(), 50);
  EXPECT_EQ(inst.num_edges(), 200u);
  for (fl::ClientId j = 0; j < 50; ++j)
    EXPECT_EQ(inst.client_edges(j).size(), 4u);
}

TEST(Uniform, DeterministicPerSeed) {
  UniformParams p;
  const std::string a = fl::to_text(uniform_random(p, 7));
  const std::string b = fl::to_text(uniform_random(p, 7));
  const std::string c = fl::to_text(uniform_random(p, 8));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Uniform, CostsWithinRanges) {
  UniformParams p;
  p.opening_lo = 5.0;
  p.opening_hi = 6.0;
  p.connection_lo = 0.5;
  p.connection_hi = 0.75;
  const fl::Instance inst = uniform_random(p, 3);
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    EXPECT_GE(inst.opening_cost(i), 5.0);
    EXPECT_LE(inst.opening_cost(i), 6.0);
    for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
      EXPECT_GE(e.cost, 0.5);
      EXPECT_LE(e.cost, 0.75);
    }
  }
}

TEST(Uniform, DegreeClampedToFacilityCount) {
  UniformParams p;
  p.num_facilities = 3;
  p.client_degree = 10;
  const fl::Instance inst = uniform_random(p, 2);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    EXPECT_EQ(inst.client_edges(j).size(), 3u);
}

TEST(Euclidean, CompleteBipartiteByDefault) {
  EuclideanParams p;
  p.num_facilities = 5;
  p.num_clients = 12;
  const EuclideanInstance out = euclidean(p, 4);
  EXPECT_EQ(out.instance.num_edges(), 60u);
  EXPECT_EQ(out.facility_pos.size(), 5u);
  EXPECT_EQ(out.client_pos.size(), 12u);
}

TEST(Euclidean, CostsEqualDistances) {
  EuclideanParams p;
  p.num_facilities = 4;
  p.num_clients = 6;
  const EuclideanInstance out = euclidean(p, 9);
  for (fl::ClientId j = 0; j < 6; ++j) {
    for (const fl::ClientEdge& e : out.instance.client_edges(j)) {
      const double d = euclidean_distance(
          out.facility_pos[static_cast<std::size_t>(e.facility)],
          out.client_pos[static_cast<std::size_t>(j)]);
      EXPECT_NEAR(e.cost, d, 1e-9);
    }
  }
}

TEST(Euclidean, TriangleInequalityThroughFacilities) {
  // Metric check: for facilities a,b and clients u,v:
  // c(a,u) <= c(a,v) + c(b,v) + c(b,u).
  EuclideanParams p;
  p.num_facilities = 5;
  p.num_clients = 8;
  const EuclideanInstance out = euclidean(p, 11);
  const fl::Instance& inst = out.instance;
  for (fl::FacilityId a = 0; a < 5; ++a)
    for (fl::FacilityId b = 0; b < 5; ++b)
      for (fl::ClientId u = 0; u < 8; ++u)
        for (fl::ClientId v = 0; v < 8; ++v)
          EXPECT_LE(inst.connection_cost(a, u),
                    inst.connection_cost(a, v) + inst.connection_cost(b, v) +
                        inst.connection_cost(b, u) + 1e-9);
}

TEST(Euclidean, RadiusSparsifiesButStaysFeasible) {
  EuclideanParams p;
  p.num_facilities = 10;
  p.num_clients = 40;
  p.connect_radius = 100.0;  // small vs side=1000
  const EuclideanInstance out = euclidean(p, 5);
  EXPECT_LT(out.instance.num_edges(), 400u);
  for (fl::ClientId j = 0; j < 40; ++j)
    EXPECT_GE(out.instance.client_edges(j).size(), 1u);  // nearest kept
}

TEST(Euclidean, ClustersConcentratePoints) {
  EuclideanParams p;
  p.num_facilities = 30;
  p.num_clients = 30;
  p.clusters = 2;
  const EuclideanInstance out = euclidean(p, 6);
  // With 2 tight clusters, the average pairwise client distance is far
  // below the uniform-square expectation (~521 for side 1000).
  double total = 0.0;
  int pairs = 0;
  for (std::size_t a = 0; a < out.client_pos.size(); ++a)
    for (std::size_t b = a + 1; b < out.client_pos.size(); ++b) {
      total += euclidean_distance(out.client_pos[a], out.client_pos[b]);
      ++pairs;
    }
  EXPECT_LT(total / pairs, 450.0);
}

TEST(PowerLaw, RhoLandsNearTarget) {
  PowerLawParams p;
  p.num_facilities = 30;
  p.num_clients = 200;
  p.rho_target = 1e5;
  const fl::Instance inst = power_law_spread(p, 13);
  const double rho = inst.cost_profile().rho;
  EXPECT_GT(rho, 1e3);   // spread really present
  EXPECT_LE(rho, 1e5 + 1);  // bounded by construction
}

TEST(PowerLaw, LargerTargetLargerRho) {
  PowerLawParams lo;
  lo.rho_target = 10.0;
  PowerLawParams hi;
  hi.rho_target = 1e6;
  EXPECT_LT(power_law_spread(lo, 1).cost_profile().rho,
            power_law_spread(hi, 1).cost_profile().rho);
}

TEST(GreedyTight, GreedyReallyPaysNearHn) {
  const int n = 64;
  const fl::Instance inst = greedy_tight(n, 0.01);
  const auto brute = seq::brute_force_solve(inst, /*max_facilities=*/30);
  // Brute force can't handle 65 facilities; compute OPT analytically: the
  // "all" facility costs 1+eps with zero connections.
  ASSERT_FALSE(brute.has_value());
  const double opt = 1.01;
  const seq::GreedyResult g = seq::greedy_solve(inst);
  const double ratio = g.solution.cost(inst) / opt;
  // Greedy walks the singleton ladder: pays ~H_n vs OPT ~1.
  EXPECT_GT(ratio, 2.5);  // H_64 ≈ 4.74; allow greedy partial escapes
}

TEST(GreedyTight, StructureIsAsDocumented) {
  const fl::Instance inst = greedy_tight(8);
  EXPECT_EQ(inst.num_facilities(), 9);
  EXPECT_EQ(inst.num_clients(), 8);
  EXPECT_EQ(inst.num_edges(), 16u);
  EXPECT_DOUBLE_EQ(inst.opening_cost(0), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(inst.opening_cost(7), 1.0);
}

TEST(Star, HubDominates) {
  const fl::Instance inst = star(5, 10, 17);
  EXPECT_EQ(inst.num_facilities(), 6);
  EXPECT_EQ(inst.num_clients(), 50);
  // Every client reaches the hub.
  for (fl::ClientId j = 0; j < 50; ++j) {
    bool hub = false;
    for (const fl::ClientEdge& e : inst.client_edges(j)) hub |= e.facility == 0;
    EXPECT_TRUE(hub);
  }
}

TEST(Family, AllFamiliesProduceValidInstancesOfRequestedScale) {
  for (const Family f : {Family::kUniform, Family::kEuclidean,
                         Family::kPowerLaw, Family::kGreedyTight,
                         Family::kStar}) {
    const fl::Instance inst = make_family_instance(f, 60, 3);
    EXPECT_GE(inst.num_clients(), 30) << family_name(f);
    EXPECT_GE(inst.num_facilities(), 2) << family_name(f);
    // dflp_cli generate checks a size against the node limit by this shape.
    const FamilyShape shape = family_shape(f, 60);
    EXPECT_EQ(inst.num_facilities(), shape.facilities) << family_name(f);
    EXPECT_EQ(inst.num_clients(), shape.clients) << family_name(f);
  }
}

TEST(Family, NamesAreDistinct) {
  EXPECT_EQ(family_name(Family::kUniform), "uniform");
  EXPECT_EQ(family_name(Family::kGreedyTight), "greedy-tight");
  EXPECT_NE(family_name(Family::kEuclidean), family_name(Family::kPowerLaw));
}

}  // namespace
}  // namespace dflp::workload
