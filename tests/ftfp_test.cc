// Tests for fault-tolerant facility placement: instance validation, the
// coverage-aware solution type, the residual-instance construction, and
// the exclusion-phase distributed solver — including the property the
// design pins: with all r_j = 1 the FTFP solver is bit-identical (solution
// fingerprint AND simulator metrics) to the plain UFL mw-greedy run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "core/ftfp_greedy.h"
#include "core/mw_greedy.h"
#include "fl/ftfp.h"
#include "workload/generators.h"

namespace dflp {
namespace {

fl::Instance small_instance(std::uint64_t seed = 3) {
  workload::UniformParams p;
  p.num_facilities = 10;
  p.num_clients = 50;
  p.client_degree = 4;
  return workload::uniform_random(p, seed);
}

TEST(FtfpInstance, ValidateRejectsBadRequirements) {
  fl::FtfpInstance inst;
  inst.base = small_instance();
  inst.requirement.assign(49, 1);  // one entry short
  EXPECT_THROW(fl::validate(inst), CheckError);

  inst.requirement.assign(50, 1);
  fl::validate(inst);  // shape now correct

  inst.requirement[7] = 0;
  EXPECT_THROW(fl::validate(inst), CheckError);

  inst.requirement[7] = 5;  // degree is 4
  EXPECT_THROW(fl::validate(inst), CheckError);
}

TEST(FtfpInstance, UniformRequirementClampsToDegree) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(), 7);
  fl::validate(inst);
  for (fl::ClientId j = 0; j < inst.base.num_clients(); ++j) {
    EXPECT_EQ(inst.requirement[static_cast<std::size_t>(j)],
              std::min<std::int32_t>(
                  7, static_cast<std::int32_t>(
                         inst.base.client_edges(j).size())));
  }
  EXPECT_EQ(inst.max_requirement(), 4);
}

TEST(FtfpSolution, RejectsDuplicateAssignmentsAndChecksFeasibility) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(), 2);
  fl::FtfpSolution sol(inst);
  const fl::FacilityId f0 = inst.base.client_edges(0)[0].facility;
  const fl::FacilityId f1 = inst.base.client_edges(0)[1].facility;
  sol.open(f0);
  sol.assign(0, f0);
  EXPECT_THROW(sol.assign(0, f0), CheckError);  // distinctness

  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));  // coverage 1 < 2
  EXPECT_NE(why.find("client 0"), std::string::npos);

  sol.assign(0, f1);
  EXPECT_FALSE(sol.is_feasible(inst, &why));  // f1 not open
  sol.open(f1);
  EXPECT_EQ(sol.coverage(0), 2);
  // Still infeasible overall: the other clients are uncovered.
  EXPECT_FALSE(sol.is_feasible(inst, &why));
}

TEST(FtfpSolution, RejectsASolutionOfAnotherInstance) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(), 1);
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(1.0);
  b.connect(f0, b.add_client(), 1.0);
  const fl::FtfpSolution other(fl::FtfpInstance{b.build(), {1}});
  std::string why;
  EXPECT_FALSE(other.is_feasible(inst, &why));
  EXPECT_EQ(why, "solution sized for a different instance");
}

TEST(FtfpSolution, RejectsANonAdjacentAssignment) {
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(1.0);
  const auto f1 = b.add_facility(1.0);
  const auto c0 = b.add_client();
  const auto c1 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f1, c1, 1.0);
  const fl::FtfpInstance inst{b.build(), {1, 1}};
  fl::FtfpSolution sol(inst);
  sol.open(f0);
  sol.assign(c0, f0);
  sol.assign(c1, f0);  // c1 reaches only f1
  std::string why;
  EXPECT_FALSE(sol.is_feasible(inst, &why));
  EXPECT_EQ(why, "client 1 assigned to non-adjacent facility 0");
}

TEST(FtfpSolution, CostCountsOpeningOnceAndEveryConnection) {
  fl::InstanceBuilder b;
  const auto f0 = b.add_facility(5.0);
  const auto f1 = b.add_facility(7.0);
  const auto c0 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f1, c0, 2.0);
  fl::FtfpInstance inst{b.build(), {2}};
  fl::FtfpSolution sol(inst);
  sol.open(f0);
  sol.open(f0);  // idempotent
  sol.open(f1);
  sol.assign(c0, f0);
  sol.assign(c0, f1);
  EXPECT_TRUE(sol.is_feasible(inst));
  EXPECT_DOUBLE_EQ(sol.cost(inst), 5.0 + 7.0 + 1.0 + 2.0);
  EXPECT_EQ(sol.num_open(), 2);
}

TEST(FtfpResidual, PhaseZeroResidualIsTheBaseInstance) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(), 2);
  const core::ResidualInstance res =
      core::build_residual(inst, fl::FtfpSolution(inst));
  EXPECT_EQ(res.instance.num_facilities(), inst.base.num_facilities());
  EXPECT_EQ(res.instance.num_clients(), inst.base.num_clients());
  EXPECT_EQ(res.instance.num_edges(), inst.base.num_edges());
  for (fl::FacilityId i = 0; i < inst.base.num_facilities(); ++i)
    EXPECT_DOUBLE_EQ(res.instance.opening_cost(i),
                     inst.base.opening_cost(i));
  for (std::size_t j = 0; j < res.client_map.size(); ++j)
    EXPECT_EQ(res.client_map[j], static_cast<fl::ClientId>(j));
}

TEST(FtfpResidual, ForcesChosenFacilitiesOpenAndExcludesAssignedEdges) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(), 2);
  fl::FtfpSolution so_far(inst);
  const fl::FacilityId f = inst.base.client_edges(0)[0].facility;
  so_far.open(f);
  so_far.assign(0, f);
  // Client 1: fully satisfied (coverage 2) -> must drop out.
  const fl::FacilityId g0 = inst.base.client_edges(1)[0].facility;
  const fl::FacilityId g1 = inst.base.client_edges(1)[1].facility;
  so_far.open(g0);
  so_far.open(g1);
  so_far.assign(1, g0);
  so_far.assign(1, g1);

  const core::ResidualInstance res = core::build_residual(inst, so_far);
  EXPECT_EQ(res.instance.num_clients(), inst.base.num_clients() - 1);
  EXPECT_TRUE(std::find(res.client_map.begin(), res.client_map.end(), 1) ==
              res.client_map.end());
  EXPECT_DOUBLE_EQ(res.instance.opening_cost(f), 0.0);
  // Client 0 is residual client 0 (client_map ascending) and lost its
  // assigned edge to f.
  EXPECT_EQ(res.client_map[0], 0);
  EXPECT_EQ(res.instance.client_edges(0).size(),
            inst.base.client_edges(0).size() - 1);
  for (const fl::ClientEdge& e : res.instance.client_edges(0))
    EXPECT_NE(e.facility, f);
}

TEST(FtfpGreedy, AllOnesIsBitIdenticalToPlainMwGreedy) {
  // The property the architecture pins: phase 0 runs the unmodified engine
  // with the caller's seed on a residual that IS the base instance, so the
  // r_j = 1 solve must reproduce the UFL run byte for byte — solution,
  // rounds, messages, bits, everything.
  for (const std::uint64_t seed : {1ULL, 5ULL, 23ULL}) {
    const fl::Instance base = small_instance(seed);
    const fl::FtfpInstance inst = fl::with_uniform_requirement(base, 1);
    core::MwParams params;
    params.k = 4;
    params.seed = seed;

    const core::MwGreedyOutcome ufl = core::run_mw_greedy(base, params);
    const core::FtfpOutcome ftfp = core::run_ftfp_greedy(inst, params);

    EXPECT_EQ(ftfp.phases, 1) << "seed=" << seed;
    // Solution identity (fingerprints are byte-comparable).
    std::string ufl_fp = "open:";
    for (fl::FacilityId i = 0; i < base.num_facilities(); ++i)
      if (ufl.solution.is_open(i)) ufl_fp += std::to_string(i) + ",";
    ufl_fp += ";assign:";
    for (fl::ClientId j = 0; j < base.num_clients(); ++j)
      ufl_fp += "[" + std::to_string(ufl.solution.assignment(j)) + ",]";
    EXPECT_EQ(ftfp.solution.fingerprint(inst), ufl_fp) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(ftfp.solution.cost(inst), ufl.solution.cost(base))
        << "seed=" << seed;
    // Metrics identity.
    EXPECT_EQ(ftfp.metrics.rounds, ufl.metrics.rounds) << "seed=" << seed;
    EXPECT_EQ(ftfp.metrics.messages, ufl.metrics.messages)
        << "seed=" << seed;
    EXPECT_EQ(ftfp.metrics.total_bits, ufl.metrics.total_bits)
        << "seed=" << seed;
    EXPECT_EQ(ftfp.metrics.max_message_bits, ufl.metrics.max_message_bits)
        << "seed=" << seed;
    EXPECT_EQ(ftfp.mopup_clients, ufl.mopup_clients) << "seed=" << seed;
    EXPECT_EQ(ftfp.schedule.levels, ufl.schedule.levels) << "seed=" << seed;
  }
}

TEST(FtfpGreedy, HigherCoverageIsFeasibleAndCostsMore) {
  const fl::Instance base = small_instance(29);
  core::MwParams params;
  params.k = 4;
  params.seed = 2;
  double prev_cost = 0.0;
  for (const std::int32_t r : {1, 2, 3}) {
    const fl::FtfpInstance inst = fl::with_uniform_requirement(base, r);
    const core::FtfpOutcome out = core::run_ftfp_greedy(inst, params);
    EXPECT_TRUE(out.solution.is_feasible(inst)) << "r=" << r;
    EXPECT_EQ(out.phases, r) << "r=" << r;
    EXPECT_EQ(out.phase_metrics.size(), static_cast<std::size_t>(r));
    const double cost = out.solution.cost(inst);
    EXPECT_GT(cost, prev_cost) << "r=" << r;
    prev_cost = cost;
    // Every client holds exactly r_j distinct assignments (one gained per
    // phase, never more).
    for (fl::ClientId j = 0; j < base.num_clients(); ++j)
      EXPECT_EQ(out.solution.coverage(j),
                inst.requirement[static_cast<std::size_t>(j)]);
  }
}

TEST(FtfpGreedy, TieredRequirementsRunPartialPhases) {
  // Every third client is critical and needs two distinct facilities.
  fl::FtfpInstance inst = fl::with_uniform_requirement(small_instance(31), 1);
  for (std::size_t j = 0; j < inst.requirement.size(); j += 3)
    inst.requirement[j] = 2;
  core::MwParams params;
  params.k = 4;
  params.seed = 9;
  const core::FtfpOutcome out = core::run_ftfp_greedy(inst, params);
  EXPECT_TRUE(out.solution.is_feasible(inst));
  EXPECT_EQ(out.phases, 2);
  // Phase 1 only re-solves for the critical clients, so it is cheaper in
  // messages than phase 0.
  ASSERT_EQ(out.phase_metrics.size(), 2u);
  EXPECT_LT(out.phase_metrics[1].messages, out.phase_metrics[0].messages);
}

TEST(FtfpGreedy, RecoveredLossyRunMatchesFaultFree) {
  const fl::FtfpInstance inst =
      fl::with_uniform_requirement(small_instance(43), 2);
  core::MwParams params;
  params.k = 4;
  params.seed = 8;
  const core::FtfpOutcome golden = core::run_ftfp_greedy(inst, params);

  core::MwParams lossy = params;
  lossy.reliable = true;
  lossy.faults.drop_probability = 0.15;
  lossy.faults.fault_seed = 77;
  const core::FtfpOutcome out = core::run_ftfp_greedy(inst, lossy);
  EXPECT_EQ(out.solution.fingerprint(inst),
            golden.solution.fingerprint(inst));
  EXPECT_GT(out.metrics.dropped, 0u);
  EXPECT_GT(out.transport.retransmissions, 0u);
}

}  // namespace
}  // namespace dflp
