// Tests for the experiment harness: lower-bound selection, per-algorithm
// execution, suite runs and table rendering.
#include <gtest/gtest.h>

#include "fl/metric.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "lp/ufl_lp.h"
#include "seq/brute_force.h"
#include "workload/generators.h"

namespace dflp::harness {
namespace {

fl::Instance small(std::uint64_t seed = 1) {
  workload::UniformParams p;
  p.num_facilities = 6;
  p.num_clients = 14;
  p.client_degree = 3;
  return workload::uniform_random(p, seed);
}

TEST(LowerBound, UsesLpOnSmallInstances) {
  const fl::Instance inst = small();
  const LowerBound lb = compute_lower_bound(inst);
  EXPECT_EQ(lb.kind, "lp-optimum");
  const auto lp = lp::solve_ufl_lp(inst);
  ASSERT_TRUE(lp.has_value());
  EXPECT_NEAR(lb.value, lp->optimum, 1e-9);
}

TEST(LowerBound, FallsBackToDualAscentOnLargeInstances) {
  workload::UniformParams p;
  p.num_facilities = 40;
  p.num_clients = 400;
  p.client_degree = 5;
  const fl::Instance inst = workload::uniform_random(p, 2);
  const LowerBound lb = compute_lower_bound(inst);
  EXPECT_EQ(lb.kind, "dual-ascent");
  EXPECT_GT(lb.value, 0.0);
}

TEST(LowerBound, ExactLpUpToTheEdgeLimitOnly) {
  // The dense simplex runs on every instance up to kMaxLpEdges edges and
  // on none past it.
  workload::UniformParams p;
  p.num_facilities = 10;
  p.num_clients = 50;
  p.client_degree = 8;
  const fl::Instance at_limit = workload::uniform_random(p, 1);
  ASSERT_EQ(at_limit.num_edges(), kMaxLpEdges);
  EXPECT_EQ(compute_lower_bound(at_limit).kind, "lp-optimum");
  p.num_clients = 51;
  const fl::Instance past_limit = workload::uniform_random(p, 1);
  ASSERT_EQ(past_limit.num_edges(), kMaxLpEdges + 8);
  EXPECT_EQ(compute_lower_bound(past_limit).kind, "dual-ascent");
}

TEST(LowerBound, FallsBackToCheapestEdgesWhenDualAscentIsZero) {
  // Free facilities and free edges on more than kMaxLpEdges edges: the LP
  // is not tried and the dual ascent proves nothing, so the cheapest-edges
  // sum is used.
  fl::InstanceBuilder b;
  const fl::FacilityId f0 = b.add_facility(0.0);
  const fl::FacilityId f1 = b.add_facility(0.0);
  for (std::size_t j = 0; j <= kMaxLpEdges / 2; ++j) {
    const fl::ClientId c = b.add_client();
    b.connect(f0, c, 0.0);
    b.connect(f1, c, 0.0);
  }
  const fl::Instance inst = b.build();
  ASSERT_GT(inst.num_edges(), kMaxLpEdges);
  const LowerBound lb = compute_lower_bound(inst);
  EXPECT_EQ(lb.kind, "cheapest-edges");
  EXPECT_EQ(lb.value, 0.0);
}

TEST(LowerBound, IsBelowOptimum) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const fl::Instance inst = small(seed);
    const LowerBound lb = compute_lower_bound(inst);
    const auto brute = seq::brute_force_solve(inst);
    ASSERT_TRUE(brute.has_value());
    EXPECT_LE(lb.value, brute->optimum + 1e-6) << "seed " << seed;
  }
}

TEST(Runner, EveryAlgorithmRunsFeasiblyWithSaneRatios) {
  // Complete bipartite and metric, the one input every algorithm takes
  // (clique-fl requires it).
  fl::MetricParams mp;
  mp.facilities = 6;
  mp.clients = 14;
  const fl::Instance inst = fl::make_metric_instance(mp, 3).instance;
  const LowerBound lb = compute_lower_bound(inst);
  core::MwParams params;
  params.k = 4;
  params.seed = 3;
  for (const Algo algo :
       {Algo::kMwGreedy, Algo::kPipeline, Algo::kIdealGreedy,
        Algo::kSeqGreedy, Algo::kJainVazirani, Algo::kMettuPlaxton,
        Algo::kJms, Algo::kLocalSearch, Algo::kOpenAll,
        Algo::kNearestFacility, Algo::kLiJms, Algo::kCliqueFl}) {
    const RunResult r = run_algorithm(algo, inst, params, lb);
    EXPECT_TRUE(r.feasible) << r.algo;
    EXPECT_GE(r.ratio, 1.0 - 1e-9) << r.algo;
    EXPECT_LT(r.ratio, 100.0) << r.algo;
    EXPECT_EQ(r.algo, algo_name(algo));
  }
}

TEST(Runner, DistributedAlgosReportNetworkMetrics) {
  const fl::Instance inst = small(4);
  const LowerBound lb = compute_lower_bound(inst);
  core::MwParams params;
  params.k = 4;
  const RunResult mw = run_algorithm(Algo::kMwGreedy, inst, params, lb);
  EXPECT_GT(mw.rounds, 0u);
  EXPECT_GT(mw.messages, 0u);
  EXPECT_GT(mw.max_message_bits, 0);
  const RunResult greedy = run_algorithm(Algo::kSeqGreedy, inst, params, lb);
  EXPECT_EQ(greedy.messages, 0u);
}

TEST(Runner, IdealGreedyRoundsEqualsIterations) {
  const fl::Instance inst = small(5);
  const LowerBound lb = compute_lower_bound(inst);
  core::MwParams params;
  const RunResult r = run_algorithm(Algo::kIdealGreedy, inst, params, lb);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_LE(r.rounds, static_cast<std::uint64_t>(inst.num_clients()));
}

TEST(Runner, SuiteSharesOneLowerBound) {
  const fl::Instance inst = small(6);
  core::MwParams params;
  params.k = 4;
  const auto results =
      run_suite({Algo::kSeqGreedy, Algo::kOpenAll}, inst, params);
  ASSERT_EQ(results.size(), 2u);
  // open-all can never beat greedy's ratio by construction of pruning…
  // but at minimum both ratios are >= 1 and cost(greedy) <= cost(open-all).
  EXPECT_LE(results[0].cost, results[1].cost + 1e-9);
}

TEST(Report, TableContainsAllAlgorithms) {
  const fl::Instance inst = small(7);
  core::MwParams params;
  params.k = 2;
  const auto results =
      run_suite({Algo::kMwGreedy, Algo::kSeqGreedy}, inst, params);
  const Table table = results_table(results);
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("mw-greedy"), std::string::npos);
  EXPECT_NE(md.find("seq-greedy"), std::string::npos);
  EXPECT_NE(md.find("ratio-vs-LB"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Report, AlgoNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const Algo algo :
       {Algo::kMwGreedy, Algo::kPipeline, Algo::kIdealGreedy,
        Algo::kSeqGreedy, Algo::kJainVazirani, Algo::kMettuPlaxton,
        Algo::kJms, Algo::kLocalSearch, Algo::kOpenAll,
        Algo::kNearestFacility}) {
    names.insert(algo_name(algo));
  }
  EXPECT_EQ(names.size(), 10u);
}

}  // namespace
}  // namespace dflp::harness
