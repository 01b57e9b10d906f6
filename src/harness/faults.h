// Fault-injection campaigns: harness-level crash-before-start handling and
// faulted-vs-fault-free comparison runs.
//
// Two layers of crash semantics exist. In-network crash-stop events
// (FaultPlan::crashes) remove a node mid-run — without a failure detector
// the PODC'05 protocols stall on such a node, which is exactly what the
// determinism tests pin. The *boot crash* model here is the operationally
// interesting one: a seeded fraction of facilities dies before the
// algorithm starts, the survivors run the protocol on the induced
// sub-instance, and the solution is mapped back to original facility ids.
// A facility whose removal would leave some client with no potential
// neighbour is spared (a real deployment cannot serve a client with no
// reachable facility either), so the pruned instance is always valid.
//
// `run_fault_scenario` is the campaign primitive: it runs a fault-free
// baseline with the same transport mode, then the faulted run, and reports
// completion, feasibility, solution equality against the baseline, cost
// ratio, round dilation and the fault/recovery counters. bench_faults
// sweeps it over drop rate × crash fraction × burst length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mw_greedy.h"
#include "core/params.h"
#include "fl/instance.h"
#include "fl/solution.h"

namespace dflp::harness {

/// Seeded crash-before-start plan over an instance's facilities.
struct BootCrashes {
  std::vector<fl::FacilityId> crashed;    ///< original ids removed
  std::vector<fl::FacilityId> survivors;  ///< pruned id -> original id
  fl::Instance pruned;                    ///< instance over the survivors
};

/// Samples each facility to crash with `fraction` probability from a
/// stream derived from `fault_seed`, sparing any facility whose removal
/// would isolate a client (facilities are considered in id order, so the
/// spare decision is deterministic). `fraction` must be in [0, 1].
[[nodiscard]] BootCrashes sample_boot_crashes(const fl::Instance& inst,
                                              double fraction,
                                              std::uint64_t fault_seed);

/// Maps a solution on the pruned instance back to original facility ids.
[[nodiscard]] fl::IntegralSolution map_solution_back(
    const fl::Instance& original, const BootCrashes& plan,
    const fl::IntegralSolution& pruned_solution);

/// mw-greedy honouring `params.boot_crash_fraction`: prunes the crashed
/// facilities, runs the survivors (with whatever message faults and
/// transport mode the params configure), and returns the outcome with the
/// solution mapped back to original ids. Identical to run_mw_greedy when
/// the fraction is 0. The outcome's `metrics.crashed` counts the
/// boot-crashed facilities.
[[nodiscard]] core::MwGreedyOutcome run_mw_greedy_with_faults(
    const fl::Instance& inst, const core::MwParams& params);

/// Canonical printable digest of a solution (open set + assignment),
/// byte-comparable across runs.
[[nodiscard]] std::string solution_fingerprint(
    const fl::Instance& inst, const fl::IntegralSolution& solution);

/// One faulted run compared against the fault-free baseline that shares
/// its transport mode, seed and boot-crash plan.
struct FaultRunReport {
  std::string scenario;
  bool completed = false;           ///< no CheckError escaped the run
  bool feasible = false;
  bool matches_fault_free = false;  ///< same solution as the baseline
  double cost = 0.0;
  double cost_ratio = 0.0;          ///< cost / baseline cost
  std::uint64_t rounds = 0;
  double round_dilation = 0.0;      ///< rounds / baseline rounds
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t crashed = 0;        ///< boot-crashed facilities
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_discarded = 0;
  /// Failure message when !completed, without the ` at <file>:<line>` of
  /// the failed CHECK (without_check_location), so records are stable.
  std::string diagnostic;
};

/// Runs mw-greedy under `params` and under the matching fault-free
/// baseline, and compares. A CheckError in the faulted run (the expected
/// outcome without the reliable transport) is captured into the report,
/// not rethrown.
[[nodiscard]] FaultRunReport run_fault_scenario(const fl::Instance& inst,
                                                const core::MwParams& params,
                                                const std::string& name);

struct FaultScenario {
  std::string name;
  core::MwParams params;
};

/// Campaign: run_fault_scenario over every entry.
[[nodiscard]] std::vector<FaultRunReport> run_fault_campaign(
    const fl::Instance& inst, const std::vector<FaultScenario>& scenarios);

}  // namespace dflp::harness
