// Cross-cutting property sweeps (TEST_P): invariants that must hold for
// every (family, size, seed) combination — the library-wide contracts.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/frac_lp.h"
#include "core/mw_greedy.h"
#include "fl/serialize.h"
#include "lp/dual_ascent.h"
#include "oracles.h"
#include "respell.h"
#include "seq/greedy.h"
#include "seq/trivial.h"
#include "workload/generators.h"

namespace dflp {
namespace {

struct Case {
  workload::Family family;
  std::int32_t size;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = workload::family_name(info.param.family) + "_n" +
                     std::to_string(info.param.size) + "_s" +
                     std::to_string(info.param.seed);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto family :
       {workload::Family::kUniform, workload::Family::kEuclidean,
        workload::Family::kPowerLaw, workload::Family::kGreedyTight,
        workload::Family::kStar}) {
    for (std::int32_t size : {20, 60}) {
      for (std::uint64_t seed : {1ULL, 7ULL}) cases.push_back({family, size,
                                                               seed});
    }
  }
  return cases;
}

class FamilySweep : public ::testing::TestWithParam<Case> {
 protected:
  fl::Instance instance() const {
    return workload::make_family_instance(GetParam().family,
                                          GetParam().size, GetParam().seed);
  }
};

TEST_P(FamilySweep, SerializationRoundTripsExactly) {
  const fl::Instance inst = instance();
  const fl::Instance back = fl::parse_ufl(fl::to_text(inst));
  EXPECT_EQ(fl::to_text(back), fl::to_text(inst));
  EXPECT_EQ(back.num_edges(), inst.num_edges());
  EXPECT_DOUBLE_EQ(back.cost_profile().rho, inst.cost_profile().rho);
}

TEST_P(FamilySweep, LowerBoundChainIsOrdered) {
  const fl::Instance inst = instance();
  const double cheap = lp::cheapest_connection_bound(inst);
  const lp::DualAscentResult dual = lp::dual_ascent_bound(inst);
  EXPECT_TRUE(lp::is_dual_feasible(inst, dual.alpha));
  EXPECT_GE(dual.lower_bound, cheap - 1e-9);
  // Any feasible solution sits above the dual bound.
  const double greedy_cost = seq::greedy_solve(inst).solution.cost(inst);
  EXPECT_GE(greedy_cost, dual.lower_bound - 1e-6);
}

TEST_P(FamilySweep, EveryAlgorithmBelowOpenAll) {
  const fl::Instance inst = instance();
  const double anchor = seq::open_all_solve(inst).cost(inst);
  EXPECT_LE(seq::greedy_solve(inst).solution.cost(inst), anchor + 1e-9);
  core::MwParams params;
  params.k = 16;
  params.seed = GetParam().seed;
  const core::MwGreedyOutcome mw = core::run_mw_greedy(inst, params);
  // mw-greedy may exceed open-all only through mop-up duplication; bound
  // it by the loose-but-universal envelope.
  EXPECT_LE(mw.solution.cost(inst),
            anchor + inst.cost_profile().total_connection + 1e-9);
}

TEST_P(FamilySweep, FracStageAlwaysLpFeasible) {
  const fl::Instance inst = instance();
  core::MwParams params;
  params.k = 4;
  params.seed = GetParam().seed;
  const core::FracOutcome frac = core::run_frac_lp(inst, params);
  std::string why;
  EXPECT_TRUE(frac.fractional.is_feasible(inst, 1e-7, &why)) << why;
  // The fractional value is an upper bound on the LP optimum and therefore
  // at least the dual bound.
  EXPECT_GE(frac.fractional.value(inst),
            lp::dual_ascent_bound(inst).lower_bound - 1e-6);
}

TEST_P(FamilySweep, DistributedRunsAreSeedDeterministic) {
  const fl::Instance inst = instance();
  core::MwParams params;
  params.k = 9;
  params.seed = GetParam().seed * 31 + 5;
  const auto a = core::run_mw_greedy(inst, params);
  const auto b = core::run_mw_greedy(inst, params);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_DOUBLE_EQ(a.solution.cost(inst), b.solution.cost(inst));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweep,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace dflp
