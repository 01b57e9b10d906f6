#include "harness/faults.h"

#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace dflp::harness {

namespace {

/// Decorrelates the boot-crash stream from in-network fault streams.
constexpr std::uint64_t kBootCrashSalt = 0xB0075EEDB0075EEFULL;

}  // namespace

BootCrashes sample_boot_crashes(const fl::Instance& inst, double fraction,
                                std::uint64_t fault_seed) {
  DFLP_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                 "boot crash fraction must be in [0, 1], got " << fraction);
  const fl::FacilityId m = inst.num_facilities();
  const fl::ClientId n = inst.num_clients();

  // Remaining potential facilities per client; a facility is spared when
  // crashing it would drop some client's count to zero.
  std::vector<int> client_degree(static_cast<std::size_t>(n), 0);
  for (fl::ClientId j = 0; j < n; ++j) {
    client_degree[static_cast<std::size_t>(j)] =
        static_cast<int>(inst.client_edges(j).size());
  }

  BootCrashes plan;
  std::vector<std::uint8_t> dead(static_cast<std::size_t>(m), 0);
  if (fraction > 0.0) {
    for (fl::FacilityId i = 0; i < m; ++i) {
      Rng coin(derive_stream_seed(fault_seed ^ kBootCrashSalt,
                                  static_cast<std::uint64_t>(i), 0));
      if (!coin.bernoulli(fraction)) continue;
      bool isolates = false;
      for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
        if (client_degree[static_cast<std::size_t>(e.client)] <= 1) {
          isolates = true;
          break;
        }
      }
      if (isolates) continue;
      dead[static_cast<std::size_t>(i)] = 1;
      plan.crashed.push_back(i);
      for (const fl::FacilityEdge& e : inst.facility_edges(i))
        --client_degree[static_cast<std::size_t>(e.client)];
    }
  }

  std::vector<fl::FacilityId> to_pruned(static_cast<std::size_t>(m),
                                        fl::kNoFacility);
  fl::InstanceBuilder builder;
  for (fl::FacilityId i = 0; i < m; ++i) {
    if (dead[static_cast<std::size_t>(i)]) continue;
    to_pruned[static_cast<std::size_t>(i)] =
        builder.add_facility(inst.opening_cost(i));
    plan.survivors.push_back(i);
  }
  for (fl::ClientId j = 0; j < n; ++j) builder.add_client();
  for (fl::FacilityId i = 0; i < m; ++i) {
    const fl::FacilityId pi = to_pruned[static_cast<std::size_t>(i)];
    if (pi == fl::kNoFacility) continue;
    for (const fl::FacilityEdge& e : inst.facility_edges(i))
      builder.connect(pi, e.client, e.cost);
  }
  plan.pruned = builder.build();
  return plan;
}

fl::IntegralSolution map_solution_back(
    const fl::Instance& original, const BootCrashes& plan,
    const fl::IntegralSolution& pruned_solution) {
  fl::IntegralSolution mapped(original);
  for (std::size_t p = 0; p < plan.survivors.size(); ++p) {
    if (pruned_solution.is_open(static_cast<fl::FacilityId>(p)))
      mapped.open(plan.survivors[p]);
  }
  for (fl::ClientId j = 0; j < original.num_clients(); ++j) {
    const fl::FacilityId a = pruned_solution.assignment(j);
    if (a != fl::kNoFacility)
      mapped.assign(j, plan.survivors[static_cast<std::size_t>(a)]);
  }
  return mapped;
}

core::MwGreedyOutcome run_mw_greedy_with_faults(const fl::Instance& inst,
                                                const core::MwParams& params) {
  if (params.boot_crash_fraction <= 0.0)
    return core::run_mw_greedy(inst, params);
  BootCrashes plan = sample_boot_crashes(inst, params.boot_crash_fraction,
                                         params.faults.fault_seed);
  core::MwParams pruned_params = params;
  pruned_params.boot_crash_fraction = 0.0;
  core::MwGreedyOutcome out = core::run_mw_greedy(plan.pruned, pruned_params);
  out.solution = map_solution_back(inst, plan, out.solution);
  out.metrics.crashed += plan.crashed.size();
  return out;
}

std::string solution_fingerprint(const fl::Instance& inst,
                                 const fl::IntegralSolution& solution) {
  std::ostringstream os;
  os << "open:";
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    if (solution.is_open(i)) os << i << ",";
  os << ";assign:";
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    os << solution.assignment(j) << ",";
  return os.str();
}

FaultRunReport run_fault_scenario(const fl::Instance& inst,
                                  const core::MwParams& params,
                                  const std::string& name) {
  FaultRunReport report;
  report.scenario = name;

  // The baseline keeps the seed, transport mode and fault_seed, so a
  // boot-crash plan prunes the same survivors.
  core::MwParams baseline_params = params;
  baseline_params.faults = net::FaultPlan::Options{};
  baseline_params.faults.fault_seed = params.faults.fault_seed;
  const core::MwGreedyOutcome baseline =
      run_mw_greedy_with_faults(inst, baseline_params);
  const std::string baseline_fp =
      solution_fingerprint(inst, baseline.solution);
  const double baseline_cost = baseline.solution.cost(inst);

  try {
    const core::MwGreedyOutcome out = run_mw_greedy_with_faults(inst, params);
    report.completed = true;
    report.feasible = out.solution.is_feasible(inst);
    report.matches_fault_free =
        solution_fingerprint(inst, out.solution) == baseline_fp;
    report.cost = report.feasible ? out.solution.cost(inst) : 0.0;
    report.cost_ratio =
        baseline_cost > 0.0 ? report.cost / baseline_cost
                            : (report.cost <= 0.0 ? 1.0 : 0.0);
    report.rounds = out.metrics.rounds;
    report.round_dilation =
        baseline.metrics.rounds > 0
            ? static_cast<double>(out.metrics.rounds) /
                  static_cast<double>(baseline.metrics.rounds)
            : 0.0;
    report.dropped = out.metrics.dropped;
    report.duplicated = out.metrics.duplicated;
    report.crashed = out.metrics.crashed;
    report.retransmissions = out.transport.retransmissions;
    report.duplicates_discarded = out.transport.duplicates_discarded;
  } catch (const CheckError& err) {
    report.diagnostic = without_check_location(err.what());
  }
  return report;
}

std::vector<FaultRunReport> run_fault_campaign(
    const fl::Instance& inst, const std::vector<FaultScenario>& scenarios) {
  std::vector<FaultRunReport> reports;
  reports.reserve(scenarios.size());
  for (const FaultScenario& s : scenarios)
    reports.push_back(run_fault_scenario(inst, s.params, s.name));
  return reports;
}

}  // namespace dflp::harness
