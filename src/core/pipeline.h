// The paper's full two-stage pipeline: distributed fractional LP solve
// (O(k) rounds) followed by distributed randomized rounding (O(log N)
// rounds). This is the algorithm behind the headline
// O(sqrt(k) * (m*rho)^(1/sqrt(k)) * log(m+n)) bound; the combinatorial
// mw_greedy is the practical variant that skips the fractional detour.
#pragma once

#include "core/frac_lp.h"
#include "core/params.h"
#include "core/rand_round.h"
#include "fl/instance.h"
#include "fl/solution.h"

namespace dflp::core {

struct PipelineOutcome {
  fl::IntegralSolution solution;
  /// Stage-1 fractional value (compare against the LP optimum for the
  /// stage-1 loss, and against solution cost for the rounding loss).
  double fractional_value = 0.0;
  net::NetMetrics frac_metrics;
  net::NetMetrics round_metrics;
  MwSchedule schedule;
  int frac_mopup_clients = 0;
  int round_fallback_clients = 0;
  /// Recovery-layer counters over both stages (all-zero unless
  /// `MwParams::reliable`).
  net::ReliableStats transport;

  explicit PipelineOutcome(const fl::Instance& inst) : solution(inst) {}

  [[nodiscard]] std::uint64_t total_rounds() const noexcept {
    return frac_metrics.rounds + round_metrics.rounds;
  }
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return frac_metrics.messages + round_metrics.messages;
  }
};

[[nodiscard]] PipelineOutcome run_pipeline(const fl::Instance& inst,
                                           const MwParams& params);

}  // namespace dflp::core
