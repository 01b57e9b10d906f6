// Stage 2 of the paper's pipeline (reconstructed): distributed randomized
// rounding of a feasible fractional solution into an integral one.
//
// For Theta(log N) phases, each still-closed facility opens independently
// with probability min(1, rounding_boost * y_i) and announces itself; a
// client connects to its cheapest announced neighbour the moment one
// exists. Because every client's fractional coverage is >= 1, each phase
// covers it with constant probability, so after Theta(log N) phases all
// clients are covered w.h.p.; the expected opening cost is at most
// phases * boost * sum_i f_i y_i = O(log N) * LP — the paper's rounding
// loss. A deterministic 3-round fallback (ask the cheapest
// positive-support facility to open) guarantees feasibility on the
// low-probability residue.
//
// Rounds: 2 * rounding_phases + 3 = O(log N).
#pragma once

#include "core/bipartite.h"
#include "core/params.h"
#include "fl/instance.h"
#include "fl/solution.h"
#include "netsim/metrics.h"
#include "netsim/network.h"
#include "netsim/reliable.h"

namespace dflp::core {

struct RoundOutcome {
  fl::IntegralSolution solution;
  net::NetMetrics metrics;
  /// Clients served only by the deterministic fallback.
  int fallback_clients = 0;
  /// Recovery-layer counters (all-zero unless `MwParams::reliable`).
  net::ReliableStats transport;

  explicit RoundOutcome(const fl::Instance& inst) : solution(inst) {}
};

/// Rounds `fractional` (must be feasible for `inst`) on a simulated CONGEST
/// network. `schedule` supplies the phase count and bit budget; the seed
/// and boost come from `params`.
[[nodiscard]] RoundOutcome run_rand_round(
    const fl::Instance& inst, const fl::FractionalSolution& fractional,
    const MwSchedule& schedule, const MwParams& params);

/// The stage's network options: the schedule's bit budget, its own seed
/// stream (`params.seed ^ 0x5EEDB00572`, decorrelated from stage 1), the
/// run's delivery order, and the transport wiring of `params`.
[[nodiscard]] net::Network::Options rand_round_options(
    const MwSchedule& schedule, const MwParams& params);

/// Runs the stage on `net`, a bipartite network of `inst` with
/// rand_round_options(schedule, params) and no processes (fresh from
/// make_bipartite_network or Network::restart), whose edge table is
/// `table`. `fractional` is borrowed for the run.
[[nodiscard]] RoundOutcome run_rand_round(
    net::Network& net, const EdgeTable& table, const fl::Instance& inst,
    const fl::FractionalSolution& fractional, const MwSchedule& schedule,
    const MwParams& params);

}  // namespace dflp::core
