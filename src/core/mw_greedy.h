// The paper's primary algorithm (reconstructed): k-parameterized
// distributed greedy for non-metric UFL in the CONGEST model.
//
// Structure (DESIGN.md §3.1). The cost-effectiveness range is discretized
// into a geometric ladder of thresholds with ratio beta = (m*rho)^(1/L),
// L = ceil(sqrt(k)). For each rung, L contention sub-phases run; each
// sub-phase is a fixed 4-round conversation:
//
//   round 4t+0  facilities absorb COVERED notices, re-evaluate their best
//               star over still-uncovered neighbours and OFFER it to those
//               clients when its ratio clears the current threshold;
//   round 4t+1  each uncovered client ACCEPTs its cheapest offering
//               facility (exact local costs; ties by node id);
//   round 4t+2  a candidate facility opens when enough clients accepted
//               (>= max(1, ceil(|star|/beta)) under the default rule) and
//               GRANTs its accepters;
//   round 4t+3  granted clients mark themselves covered, record their
//               assignment and broadcast COVERED to all neighbours.
//
// A deterministic 3-round mop-up then covers any stragglers (each asks its
// cheapest facility to open), guaranteeing feasibility. Every message fits
// the network's checked O(log N)-bit budget; the whole run takes
// 4*levels*subphases + 3 = O(k) rounds up to the instance-bound constants
// measured in bench E2.
#pragma once

#include "core/params.h"
#include "fl/instance.h"
#include "fl/solution.h"
#include "netsim/metrics.h"
#include "netsim/reliable.h"

namespace dflp::core {

struct MwGreedyOutcome {
  fl::IntegralSolution solution;
  net::NetMetrics metrics;
  MwSchedule schedule;
  /// Clients the scale schedule failed to cover (mop-up handled them; with
  /// mopup disabled these remain unassigned and the solution is
  /// infeasible — the E8 ablation reports this).
  int mopup_clients = 0;
  /// Recovery-layer counters, aggregated over all nodes (all-zero unless
  /// the run used `MwParams::reliable`).
  net::ReliableStats transport;
};

/// Runs the distributed greedy end-to-end on a simulated CONGEST network.
[[nodiscard]] MwGreedyOutcome run_mw_greedy(const fl::Instance& inst,
                                            const MwParams& params);

}  // namespace dflp::core
