#include "harness/runner.h"

#include <chrono>

#include "common/check.h"
#include "core/clique_fl.h"
#include "core/ideal_greedy.h"
#include "core/metric_baseline.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "harness/faults.h"
#include "lp/dual_ascent.h"
#include "lp/ufl_lp.h"
#include "seq/greedy.h"
#include "seq/jain_vazirani.h"
#include "seq/jms.h"
#include "seq/local_search.h"
#include "seq/mettu_plaxton.h"
#include "seq/trivial.h"

namespace dflp::harness {

std::string algo_name(Algo algo) {
  switch (algo) {
    case Algo::kMwGreedy:
      return "mw-greedy";
    case Algo::kPipeline:
      return "mw-pipeline";
    case Algo::kIdealGreedy:
      return "ideal-greedy";
    case Algo::kSeqGreedy:
      return "seq-greedy";
    case Algo::kJainVazirani:
      return "jain-vazirani";
    case Algo::kMettuPlaxton:
      return "mettu-plaxton";
    case Algo::kJms:
      return "jms-greedy";
    case Algo::kLocalSearch:
      return "local-search";
    case Algo::kOpenAll:
      return "open-all";
    case Algo::kNearestFacility:
      return "nearest-facility";
    case Algo::kLiJms:
      return "li-jms";
    case Algo::kCliqueFl:
      return "clique-fl";
  }
  return "unknown";
}

LowerBound compute_lower_bound(const fl::Instance& inst) {
  if (inst.num_edges() <= kMaxLpEdges) {
    if (const auto lp = lp::solve_ufl_lp(inst)) {
      return {lp->optimum, "lp-optimum"};
    }
  }
  const lp::DualAscentResult dual = lp::dual_ascent_bound(inst);
  if (dual.lower_bound > 0.0) return {dual.lower_bound, "dual-ascent"};
  return {lp::cheapest_connection_bound(inst), "cheapest-edges"};
}

namespace {

double safe_ratio(double cost, const LowerBound& lb) {
  if (lb.value <= 0.0) return cost <= 0.0 ? 1.0 : 0.0;  // degenerate: free OPT
  return cost / lb.value;
}

/// Copies a distributed run's simulator counters into its result row.
void record_metrics(RunResult& result, const net::NetMetrics& m) {
  result.rounds = m.rounds;
  result.messages = m.messages;
  result.total_bits = m.total_bits;
  result.max_message_bits = m.max_message_bits;
  result.dropped = m.dropped;
  result.duplicated = m.duplicated;
  result.crashed = m.crashed;
}

}  // namespace

RunResult run_algorithm(Algo algo, const fl::Instance& inst,
                        const core::MwParams& params, const LowerBound& lb) {
  RunResult result;
  result.algo = algo_name(algo);
  const auto start = std::chrono::steady_clock::now();

  fl::IntegralSolution sol;
  switch (algo) {
    case Algo::kMwGreedy: {
      // Routed through the fault harness so boot crashes are honoured;
      // identical to run_mw_greedy when boot_crash_fraction is 0.
      core::MwGreedyOutcome out = run_mw_greedy_with_faults(inst, params);
      sol = std::move(out.solution);
      record_metrics(result, out.metrics);
      result.retransmitted = out.transport.retransmissions;
      break;
    }
    case Algo::kPipeline: {
      core::PipelineOutcome out = core::run_pipeline(inst, params);
      sol = std::move(out.solution);
      net::NetMetrics both = out.frac_metrics;
      both.merge(out.round_metrics);
      record_metrics(result, both);
      result.retransmitted = out.transport.retransmissions;
      break;
    }
    case Algo::kIdealGreedy: {
      core::IdealGreedyOutcome out = core::run_ideal_greedy(inst);
      sol = std::move(out.solution);
      result.rounds = static_cast<std::uint64_t>(out.rounds);
      break;
    }
    case Algo::kSeqGreedy:
      sol = seq::greedy_solve(inst).solution;
      break;
    case Algo::kJainVazirani:
      sol = seq::jain_vazirani_solve(inst).solution;
      break;
    case Algo::kMettuPlaxton:
      sol = seq::mettu_plaxton_solve(inst).solution;
      break;
    case Algo::kJms:
      sol = seq::jms_solve(inst).solution;
      break;
    case Algo::kLocalSearch:
      sol = seq::local_search_solve(inst).solution;
      break;
    case Algo::kOpenAll:
      sol = seq::open_all_solve(inst);
      break;
    case Algo::kNearestFacility:
      sol = seq::nearest_facility_solve(inst);
      break;
    case Algo::kLiJms:
      sol = core::li_jms_solve(inst).solution;
      break;
    case Algo::kCliqueFl: {
      // Clique runs reuse the MwParams engine knobs; the closure overload
      // requires a complete bipartite (metric) instance and throws
      // otherwise.
      core::CliqueFlParams cp;
      cp.seed = params.seed;
      cp.delivery = params.delivery;
      cp.faults = params.faults;
      cp.tracer = params.tracer;
      core::CliqueFlOutcome out = core::run_clique_fl(inst, cp);
      sol = std::move(out.solution);
      record_metrics(result, out.metrics);
      break;
    }
  }

  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.feasible = sol.is_feasible(inst);
  DFLP_CHECK_MSG(result.feasible,
                 result.algo << " produced an infeasible solution");
  result.cost = sol.cost(inst);
  result.ratio = safe_ratio(result.cost, lb);
  return result;
}

std::vector<RunResult> run_suite(const std::vector<Algo>& algos,
                                 const fl::Instance& inst,
                                 const core::MwParams& params) {
  const LowerBound lb = compute_lower_bound(inst);
  std::vector<RunResult> results;
  results.reserve(algos.size());
  for (Algo a : algos) results.push_back(run_algorithm(a, inst, params, lb));
  return results;
}

}  // namespace dflp::harness
