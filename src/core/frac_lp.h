// Stage 1 of the paper's two-stage pipeline (reconstructed): a distributed
// multiplicative solver for the UFL covering LP under the same
// scale/sub-phase schedule as the combinatorial greedy.
//
// Facilities maintain an opening variable y_i on the geometric grid
// y(raises) = min(1, beta^(raises - y_scale)) — i.e. y starts (one raise)
// at ~1/(m*rho*deg) and each further raise multiplies it by beta. In each
// sub-phase a facility whose best star over *fractionally-uncovered*
// neighbours clears the current threshold raises once and broadcasts its
// raise count (a small integer: O(log N) bits). A client is covered when
// the y mass it can see across its neighbours reaches 1; it then allocates
// x over its cheapest edges (x_ij = min(y_i, residual)) and broadcasts
// COVERED. A deterministic mop-up sets y = 1 at the cheapest facility of
// any straggler, so the output is always LP-feasible.
//
// Each sub-phase costs 2 rounds, so the stage runs in
// 2*levels*subphases + 3 = O(k) rounds.
#pragma once

#include "core/bipartite.h"
#include "core/params.h"
#include "fl/instance.h"
#include "fl/solution.h"
#include "netsim/metrics.h"
#include "netsim/network.h"
#include "netsim/reliable.h"

namespace dflp::core {

struct FracOutcome {
  fl::FractionalSolution fractional;
  net::NetMetrics metrics;
  MwSchedule schedule;
  /// Clients covered only by the mop-up.
  int mopup_clients = 0;
  /// Recovery-layer counters (all-zero unless `MwParams::reliable`).
  net::ReliableStats transport;

  explicit FracOutcome(const fl::Instance& inst) : fractional(inst) {}
};

[[nodiscard]] FracOutcome run_frac_lp(const fl::Instance& inst,
                                      const MwParams& params);

/// The stage's network options under `schedule`: its bit budget, the run's
/// seed and delivery order, and the transport wiring of `params`
/// (core/transport.h).
[[nodiscard]] net::Network::Options frac_lp_options(const MwSchedule& schedule,
                                                    const MwParams& params);

/// Runs the stage on `net`, a bipartite network of `inst` with
/// frac_lp_options(schedule, params) and no processes (fresh from
/// make_bipartite_network or Network::restart), whose edge table is
/// `table`. The instance overload builds its own; run_pipeline shares one
/// network between both stages.
[[nodiscard]] FracOutcome run_frac_lp(net::Network& net, const EdgeTable& table,
                                      const fl::Instance& inst,
                                      const MwSchedule& schedule,
                                      const MwParams& params);

}  // namespace dflp::core
