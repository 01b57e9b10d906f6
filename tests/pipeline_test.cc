// Tests for the two-stage pipeline: fractional stage vs the exact LP,
// rounding losses, and the end-to-end composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/bipartite.h"
#include "core/frac_lp.h"
#include "core/pipeline.h"
#include "core/rand_round.h"
#include "fl/metric.h"
#include "lp/ufl_lp.h"
#include "seq/brute_force.h"
#include "workload/generators.h"

namespace dflp::core {
namespace {

MwParams params_k(int k, std::uint64_t seed = 1) {
  MwParams p;
  p.k = k;
  p.seed = seed;
  return p;
}

/// Checks the bipartite network of `inst` and its edge table against an
/// add_edge-built reference: the same neighbour lists, and every port's
/// cost index names the same peer in the node's cost-sorted slice. A wrong
/// reverse position throws in Network::finalize(Adjacency). `complete`
/// says which path the builder takes: the row fill for a complete
/// bipartite instance, the transposes otherwise.
void expect_edge_table_matches_reference(const fl::Instance& inst,
                                         bool complete) {
  ASSERT_EQ(inst.num_edges() ==
                static_cast<std::size_t>(inst.num_facilities()) *
                    static_cast<std::size_t>(inst.num_clients()),
            complete)
      << inst.describe();
  EdgeTable table;
  const net::Network net =
      make_bipartite_network(inst, net::Network::Options{}, table);
  net::Network reference(net.num_nodes(), net::Network::Options{});
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      reference.add_edge(facility_node(i), client_node(inst, e.client));
  }
  reference.finalize();
  EXPECT_EQ(net.num_edges(), inst.num_edges());
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes()); ++v) {
    const std::span<const net::NodeId> nbrs = net.neighbors_of(v);
    const std::span<const net::NodeId> want = reference.neighbors_of(v);
    ASSERT_TRUE(
        std::equal(nbrs.begin(), nbrs.end(), want.begin(), want.end()))
        << inst.describe() << " node " << v;
    const std::span<const std::int32_t> cost = table.cost_index(v);
    ASSERT_EQ(cost.size(), nbrs.size());
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const auto t = static_cast<std::size_t>(cost[p]);
      const net::NodeId peer =
          v < inst.num_facilities()
              ? client_node(inst, inst.facility_edges(v)[t].client)
              : facility_node(
                    inst.client_edges(v - inst.num_facilities())[t].facility);
      EXPECT_EQ(peer, nbrs[p])
          << inst.describe() << " node " << v << " port " << p;
    }
  }
}

/// K_{m,n} with edge costs `cost(i, j)`, connected in descending ids so
/// the builder, not the call order, sorts every list.
template <typename CostFn>
fl::Instance complete_instance(std::int32_t m, std::int32_t n, CostFn cost) {
  fl::InstanceBuilder b;
  for (std::int32_t i = 0; i < m; ++i) b.add_facility(1.0 + i);
  for (std::int32_t j = 0; j < n; ++j) b.add_client();
  for (std::int32_t j = n - 1; j >= 0; --j) {
    for (std::int32_t i = m - 1; i >= 0; --i) b.connect(i, j, cost(i, j));
  }
  return b.build();
}

TEST(EdgeTable, MapsEveryPortToItsCostOrderedEdge) {
  // Sparse inputs: at 60 clients the uniform and power-law families give
  // each client 8 of the 12 facilities.
  for (const workload::Family family :
       {workload::Family::kUniform, workload::Family::kPowerLaw,
        workload::Family::kStar}) {
    expect_edge_table_matches_reference(
        workload::make_family_instance(family, 60, 4), /*complete=*/false);
  }
  expect_edge_table_matches_reference(
      workload::make_family_instance(workload::Family::kStar, 30, 4),
      /*complete=*/false);
  // Complete inputs: at 30 clients the uniform and power-law families link
  // every client to all 6 facilities, and the euclidean family and the
  // metric generator link every pair by default.
  for (const workload::Family family :
       {workload::Family::kUniform, workload::Family::kPowerLaw,
        workload::Family::kEuclidean}) {
    expect_edge_table_matches_reference(
        workload::make_family_instance(family, 30, 4), /*complete=*/true);
  }
  fl::MetricParams metric;
  metric.facilities = 16;
  metric.clients = 48;
  expect_edge_table_matches_reference(
      fl::make_metric_instance(metric, 3).instance, /*complete=*/true);
  // Costs falling with both ids, so every cost order reverses id order.
  const auto falling = [](std::int32_t i, std::int32_t j) {
    return 100.0 - 10.0 * i - j;
  };
  expect_edge_table_matches_reference(complete_instance(1, 1, falling),
                                      /*complete=*/true);
  expect_edge_table_matches_reference(complete_instance(1, 5, falling),
                                      /*complete=*/true);
  expect_edge_table_matches_reference(complete_instance(5, 1, falling),
                                      /*complete=*/true);
  // Three cost levels over K_{3,4}: ties, broken by peer id, decide much
  // of every list's order.
  expect_edge_table_matches_reference(
      complete_instance(3, 4,
                        [](std::int32_t i, std::int32_t j) {
                          return static_cast<double>((i + 2 * j) % 3);
                        }),
      /*complete=*/true);
}

TEST(FracLp, OutputIsFeasibleAndAboveLpOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 6;
    p.num_clients = 15;
    p.client_degree = 3;
    const fl::Instance inst = workload::uniform_random(p, seed);
    const FracOutcome frac = run_frac_lp(inst, params_k(4, seed));
    std::string why;
    ASSERT_TRUE(frac.fractional.is_feasible(inst, 1e-7, &why))
        << "seed " << seed << ": " << why;
    const auto lp = lp::solve_ufl_lp(inst);
    ASSERT_TRUE(lp.has_value());
    // Any feasible point is bounded below by the LP optimum.
    EXPECT_GE(frac.fractional.value(inst), lp->optimum - 1e-6)
        << "seed " << seed;
  }
}

TEST(FracLp, LargerKTightensFractionalValueOnAverage) {
  double k1 = 0.0;
  double k36 = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const fl::Instance inst = workload::make_family_instance(
        workload::Family::kPowerLaw, 50, seed);
    k1 += run_frac_lp(inst, params_k(1, seed)).fractional.value(inst);
    k36 += run_frac_lp(inst, params_k(36, seed)).fractional.value(inst);
  }
  EXPECT_LE(k36, k1 * 1.05);  // at minimum, no regression; usually better
}

TEST(FracLp, RoundsFollowTwoPerSubphaseLayout) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 2);
  const FracOutcome frac = run_frac_lp(inst, params_k(9, 2));
  const std::uint64_t budget =
      2ULL * static_cast<std::uint64_t>(frac.schedule.levels) *
          static_cast<std::uint64_t>(frac.schedule.subphases) +
      8;
  EXPECT_LE(frac.metrics.rounds, budget);
}

TEST(FracLp, CongestCompliant) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kPowerLaw, 60, 3);
  const FracOutcome frac = run_frac_lp(inst, params_k(16, 3));
  EXPECT_LE(frac.metrics.max_message_bits, frac.schedule.bit_budget);
}

TEST(FracLp, YValuesLiveOnTheDeclaredGrid) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 40, 4);
  const FracOutcome frac = run_frac_lp(inst, params_k(4, 4));
  for (double y : frac.fractional.y) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
    if (y > 0.0 && y < 1.0) {
      // y = beta^(raises - y_scale): log_beta(y) must be a negative int.
      const double steps = std::log(y) / std::log(frac.schedule.beta);
      EXPECT_NEAR(steps, std::round(steps), 1e-6);
    }
  }
}

TEST(FracLp, DeterministicForFixedSeed) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 40, 5);
  const FracOutcome a = run_frac_lp(inst, params_k(4, 99));
  const FracOutcome b = run_frac_lp(inst, params_k(4, 99));
  EXPECT_EQ(a.fractional.y, b.fractional.y);
  EXPECT_EQ(a.fractional.x, b.fractional.x);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
}

// -------------------------------------------------------------- rounding --

TEST(RandRound, FeasibleFromExactLpSolution) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 6;
    p.num_clients = 14;
    p.client_degree = 3;
    const fl::Instance inst = workload::uniform_random(p, seed);
    const auto lp = lp::solve_ufl_lp(inst);
    ASSERT_TRUE(lp.has_value());
    MwParams mw = params_k(4, seed);
    const MwSchedule sched = derive_schedule(inst, mw);
    const RoundOutcome out =
        run_rand_round(inst, lp->fractional, sched, mw);
    EXPECT_TRUE(out.solution.is_feasible(inst)) << "seed " << seed;
    EXPECT_GE(out.solution.cost(inst), lp->optimum - 1e-6);
  }
}

TEST(RandRound, RejectsInfeasibleFractionalInput) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 30, 1);
  fl::FractionalSolution bogus(inst);  // all zeros: uncovered
  MwParams mw = params_k(4, 1);
  const MwSchedule sched = derive_schedule(inst, mw);
  EXPECT_THROW(run_rand_round(inst, bogus, sched, mw), CheckError);
}

TEST(RandRound, IntegralYRoundsToExactlyThoseFacilities) {
  // With y in {0,1}, phase-1 opens every y=1 facility deterministically
  // (probability 1) and no y=0 facility ever opens except via fallback.
  workload::UniformParams p;
  p.num_facilities = 5;
  p.num_clients = 12;
  p.client_degree = 3;
  const fl::Instance inst = workload::uniform_random(p, 3);
  fl::FractionalSolution frac(inst);
  // Open everything fractionally at 1, serve each client by cheapest edge.
  std::fill(frac.y.begin(), frac.y.end(), 1.0);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    frac.x[inst.client_edge_offset(j)] = 1.0;
  MwParams mw = params_k(2, 3);
  const MwSchedule sched = derive_schedule(inst, mw);
  const RoundOutcome out = run_rand_round(inst, frac, sched, mw);
  EXPECT_TRUE(out.solution.is_feasible(inst));
  EXPECT_EQ(out.fallback_clients, 0);
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j) {
    // Every client must sit on its cheapest facility (all are open).
    EXPECT_EQ(out.solution.assignment(j),
              inst.client_edges(j).front().facility);
  }
}

TEST(RandRound, ZeroBoostServesEveryClientThroughTheFallback) {
  // rounding_boost = 0 opens nothing in the randomized phases, so every
  // client asks its cheapest facility to open (kOpenReq) and is granted.
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 1);
  MwParams mw = params_k(4, 1);
  mw.rounding_boost = 0.0;
  const PipelineOutcome out = run_pipeline(inst, mw);
  std::string why;
  EXPECT_TRUE(out.solution.is_feasible(inst, &why)) << why;
  EXPECT_EQ(out.round_fallback_clients, inst.num_clients());
}

TEST(RandRound, LossStaysWithinLogEnvelope) {
  // The analysis gives E[cost] = O(log N) * frac_value; assert a generous
  // deterministic envelope over several seeds to catch gross regressions.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 8;
    p.num_clients = 40;
    p.client_degree = 4;
    const fl::Instance inst = workload::uniform_random(p, seed);
    MwParams mw = params_k(9, seed);
    const FracOutcome frac = run_frac_lp(inst, mw);
    const RoundOutcome out =
        run_rand_round(inst, frac.fractional, frac.schedule, mw);
    const double envelope =
        10.0 * frac.schedule.rounding_phases * frac.fractional.value(inst) +
        inst.open_all_cost();
    EXPECT_LE(out.solution.cost(inst), envelope) << "seed " << seed;
  }
}

// -------------------------------------------------------------- pipeline --

TEST(Pipeline, EndToEndFeasibleAndAboveOpt) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::UniformParams p;
    p.num_facilities = 6;
    p.num_clients = 15;
    p.client_degree = 3;
    const fl::Instance inst = workload::uniform_random(p, seed);
    const PipelineOutcome out = run_pipeline(inst, params_k(4, seed));
    EXPECT_TRUE(out.solution.is_feasible(inst)) << "seed " << seed;
    const auto brute = seq::brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    EXPECT_GE(out.solution.cost(inst), brute->optimum - 1e-9);
    EXPECT_GE(out.fractional_value, 0.0);
    EXPECT_EQ(out.total_rounds(),
              out.frac_metrics.rounds + out.round_metrics.rounds);
  }
}

TEST(Pipeline, TotalRoundsSplitKPlusLogN) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 80, 7);
  const PipelineOutcome out = run_pipeline(inst, params_k(4, 7));
  // Stage 2 is Theta(log N): far below stage 1's O(k * instance-constant).
  EXPECT_LE(out.round_metrics.rounds,
            2ULL * static_cast<std::uint64_t>(out.schedule.rounding_phases) +
                8);
  EXPECT_GT(out.frac_metrics.rounds, 0u);
}

TEST(Pipeline, RoundingBoostReducesFallbacks) {
  // Boosting opening probabilities makes stragglers rarer (at higher
  // opening cost): fallback count must be monotone non-increasing in
  // expectation; assert over an aggregate.
  int fallback_low = 0;
  int fallback_high = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const fl::Instance inst = workload::make_family_instance(
        workload::Family::kUniform, 60, seed);
    MwParams lo = params_k(4, seed);
    lo.rounding_boost = 0.5;
    MwParams hi = params_k(4, seed);
    hi.rounding_boost = 4.0;
    fallback_low += run_pipeline(inst, lo).round_fallback_clients;
    fallback_high += run_pipeline(inst, hi).round_fallback_clients;
  }
  EXPECT_LE(fallback_high, fallback_low);
}

}  // namespace
}  // namespace dflp::core
