// Tests for the soft-capacitated extension and its UFL reduction.
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "fl/capacitated.h"
#include "seq/greedy.h"
#include "workload/generators.h"

namespace dflp::fl {
namespace {

SoftCapacitatedInstance uniform_cap(std::int32_t cap, std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = 8;
  p.num_clients = 40;
  p.client_degree = 4;
  SoftCapacitatedInstance inst{workload::uniform_random(p, seed), {}};
  inst.capacity.assign(8, cap);
  return inst;
}

TEST(Capacitated, CopiesNeeded) {
  EXPECT_EQ(copies_needed(5, 0), 0);
  EXPECT_EQ(copies_needed(5, 1), 1);
  EXPECT_EQ(copies_needed(5, 5), 1);
  EXPECT_EQ(copies_needed(5, 6), 2);
  EXPECT_EQ(copies_needed(5, 11), 3);
  EXPECT_EQ(copies_needed(kUncapacitated, 1000000), 1);
}

TEST(Capacitated, ValidateRejectsBadCapacities) {
  SoftCapacitatedInstance inst = uniform_cap(5, 1);
  inst.capacity.pop_back();
  EXPECT_THROW(validate(inst), CheckError);
  inst = uniform_cap(5, 1);
  inst.capacity[0] = 0;
  EXPECT_THROW(validate(inst), CheckError);
}

TEST(Capacitated, CostMatchesHandComputation) {
  // One facility, cost 10, capacity 2, three clients at cost 1 each:
  // 2 copies + 3 connections = 23.
  InstanceBuilder b;
  const auto f = b.add_facility(10.0);
  for (int t = 0; t < 3; ++t) b.connect(f, b.add_client(), 1.0);
  SoftCapacitatedInstance inst{b.build(), {2}};
  IntegralSolution sol(inst.base);
  sol.open(f);
  sol.assign_greedily(inst.base);
  EXPECT_DOUBLE_EQ(soft_capacitated_cost(inst, sol), 23.0);
}

TEST(Capacitated, UncapacitatedReductionIsIdentity) {
  SoftCapacitatedInstance inst = uniform_cap(kUncapacitated, 2);
  const Instance reduced = reduce_to_ufl(inst);
  for (ClientId j = 0; j < inst.base.num_clients(); ++j) {
    const auto a = inst.base.client_edges(j);
    const auto b = reduced.client_edges(j);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t)
      EXPECT_DOUBLE_EQ(a[t].cost, b[t].cost);
  }
  // And capacitated cost == plain cost for any solution.
  IntegralSolution sol = seq::greedy_solve(inst.base).solution;
  EXPECT_NEAR(soft_capacitated_cost(inst, sol), sol.cost(inst.base), 1e-9);
}

TEST(Capacitated, ReductionAddsSurcharge) {
  SoftCapacitatedInstance inst = uniform_cap(4, 3);
  const Instance reduced = reduce_to_ufl(inst);
  for (FacilityId i = 0; i < inst.base.num_facilities(); ++i) {
    const double surcharge = inst.base.opening_cost(i) / 4.0;
    for (const FacilityEdge& e : inst.base.facility_edges(i)) {
      EXPECT_NEAR(reduced.connection_cost(i, e.client),
                  e.cost + surcharge, 1e-9);
    }
  }
}

TEST(Capacitated, SolveWithCentralizedGreedy) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SoftCapacitatedInstance inst = uniform_cap(3, seed);
    const SoftCapacitatedResult r = solve_soft_capacitated(
        inst, [](const Instance& ufl) {
          return seq::greedy_solve(ufl).solution;
        });
    EXPECT_TRUE(r.solution.is_feasible(inst.base)) << "seed " << seed;
    EXPECT_GT(r.total_copies, 0);
    // 40 clients at capacity 3: at least ceil(40/3) = 14 copies system-wide
    // if one facility served everyone; in general >= ceil(n / (m*cap)).
    EXPECT_GE(r.total_copies, 40 / (8 * 3));
    EXPECT_GT(r.cost, 0.0);
  }
}

TEST(Capacitated, SolveWithDistributedMwGreedy) {
  // The reduction composes with the *distributed* solver unchanged: the
  // paper's algorithm solves the capacitated extension too.
  const SoftCapacitatedInstance inst = uniform_cap(4, 7);
  const SoftCapacitatedResult r = solve_soft_capacitated(
      inst, [](const Instance& ufl) {
        core::MwParams params;
        params.k = 16;
        params.seed = 7;
        return core::run_mw_greedy(ufl, params).solution;
      });
  EXPECT_TRUE(r.solution.is_feasible(inst.base));
  EXPECT_GT(r.cost, 0.0);
}

TEST(Capacitated, TighterCapacityNeverCheapens) {
  // Monotonicity: with the same solver, halving capacities cannot reduce
  // the capacitated optimum's achievable cost (here: compare the solved
  // costs, which the surcharge makes monotone for greedy).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto solve_at = [&](std::int32_t cap) {
      const SoftCapacitatedInstance inst = uniform_cap(cap, seed);
      return solve_soft_capacitated(inst, [](const Instance& ufl) {
               return seq::greedy_solve(ufl).solution;
             })
          .cost;
    };
    EXPECT_LE(solve_at(8), solve_at(2) + 1e-9) << "seed " << seed;
  }
}

TEST(Capacitated, CapacityProfileSmokeThroughDistributedSolver) {
  // Mixed capacities end-to-end through the reduction with the
  // distributed engine as the UFL solver — the path dflp_cli's --capacity
  // flag exercises.
  workload::UniformParams up;
  up.num_facilities = 8;
  up.num_clients = 40;
  up.client_degree = 4;
  SoftCapacitatedInstance inst;
  inst.base = workload::uniform_random(up, 6);
  for (std::int32_t i = 0; i < up.num_facilities; ++i)
    inst.capacity.push_back(3 + i * 7 % 10);  // 3 ... 12

  core::MwParams params;
  params.k = 4;
  params.seed = 5;
  const SoftCapacitatedResult result =
      solve_soft_capacitated(inst, [&](const Instance& ufl) {
        return core::run_mw_greedy(ufl, params).solution;
      });
  EXPECT_TRUE(result.solution.is_feasible(inst.base));
  EXPECT_GT(result.cost, 0.0);
  // Serving 40 clients through capacities <= 12 needs >= ceil(40/12) = 4
  // copies; the reduction must have paid them.
  EXPECT_GE(result.total_copies, 4);
  EXPECT_DOUBLE_EQ(result.cost, soft_capacitated_cost(inst, result.solution));

  // Determinism: the whole reduction pipeline is a pure function.
  const SoftCapacitatedResult again =
      solve_soft_capacitated(inst, [&](const Instance& ufl) {
        return core::run_mw_greedy(ufl, params).solution;
      });
  EXPECT_DOUBLE_EQ(again.cost, result.cost);
}

TEST(Capacitated, CostOfUnusedOpenFacilityCountsOneCopy) {
  InstanceBuilder b;
  const auto f0 = b.add_facility(5.0);
  const auto f1 = b.add_facility(7.0);
  const auto c = b.add_client();
  b.connect(f0, c, 1.0);
  b.connect(f1, c, 2.0);
  SoftCapacitatedInstance inst{b.build(), {1, 1}};
  IntegralSolution sol(inst.base);
  sol.open(f0);
  sol.open(f1);  // opened but unused
  sol.assign(c, f0);
  EXPECT_DOUBLE_EQ(soft_capacitated_cost(inst, sol), 5.0 + 7.0 + 1.0);
}

}  // namespace
}  // namespace dflp::fl
