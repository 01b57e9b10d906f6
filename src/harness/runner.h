// Experiment harness: runs any algorithm on an instance, measures cost,
// rounds, messages and bits, and normalizes cost by the strongest lower
// bound available — so every ratio the benches print is a certified upper
// bound on the true approximation factor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "fl/instance.h"

namespace dflp::harness {

enum class Algo : std::uint8_t {
  kMwGreedy,     ///< the paper's combinatorial distributed algorithm
  kPipeline,     ///< the paper's LP-solve + randomized-rounding pipeline
  kIdealGreedy,  ///< centralized greedy with oracle rounds = iterations
  kSeqGreedy,    ///< centralized greedy (no round accounting)
  kJainVazirani,
  kMettuPlaxton,
  kJms,
  kLocalSearch,  ///< add/drop/swap local search (3+eps on metric)
  kOpenAll,
  kNearestFacility,
  kLiJms,     ///< Li 1.488-style scaled-JMS portfolio (metric baseline)
  kCliqueFl,  ///< BHP congested-clique solver (complete bipartite only)
};

[[nodiscard]] std::string algo_name(Algo algo);

/// Which denominator the ratios use.
struct LowerBound {
  double value = 0.0;
  std::string kind;  ///< "lp-optimum", "dual-ascent", or "cheapest-edges"
};

/// Strongest affordable lower bound: exact LP via simplex when the model
/// stays under `max_lp_edges` edges, else event-driven dual ascent, else
/// (never in practice) the cheapest-connection sum. The returned value is
/// always a valid lower bound on OPT.
[[nodiscard]] LowerBound compute_lower_bound(const fl::Instance& inst,
                                             std::size_t max_lp_edges = 400);

struct RunResult {
  std::string algo;
  double cost = 0.0;
  double ratio = 0.0;  ///< cost / lower bound (>= 1 up to LB slack)
  bool feasible = false;
  // Distributed executions only (0 for centralized baselines):
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  int max_message_bits = 0;
  double wall_ms = 0.0;
  // Fault-injection and recovery counters (0 on fault-free runs):
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t crashed = 0;        ///< boot-crashed facilities
  std::uint64_t retransmitted = 0;  ///< reliable-channel re-sends
  /// rounds / fault-free-baseline rounds; 0 when no baseline was run
  /// (fault-free executions, or callers that skip the comparison).
  double round_dilation = 0.0;
};

/// Runs `algo` on `inst`; `params` applies to the distributed algorithms.
[[nodiscard]] RunResult run_algorithm(Algo algo, const fl::Instance& inst,
                                      const core::MwParams& params,
                                      const LowerBound& lb);

/// Convenience: run several algorithms against one shared lower bound.
[[nodiscard]] std::vector<RunResult> run_suite(
    const std::vector<Algo>& algos, const fl::Instance& inst,
    const core::MwParams& params);

}  // namespace dflp::harness
