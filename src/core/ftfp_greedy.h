// Distributed FTFP solver: the mw_greedy pipeline run in r_max *exclusion
// phases* over residual instances.
//
// Phase p (0-based) solves the residual UFL instance induced by the
// still-unsatisfied demands:
//   * a client participates while it holds fewer than r_j assignments;
//   * every facility already chosen in an earlier phase is *forced open* —
//     its residual opening cost is 0, so serving further demands through it
//     is free beyond the connection cost;
//   * an edge (i, j) is *excluded* once facility i is assigned to client j,
//     so each phase can only add distinct coverage.
// Each phase is one unmodified `run_mw_greedy` execution on the residual
// instance — the staged round engine, transport options, fault plan and
// recovery layer all apply verbatim, so every phase (and hence the whole
// solve) is bit-identical across delivery orders.
//
// Phase 0 runs with `params.seed` on a residual instance that *is* the
// base instance, so with all r_j = 1 the solver is byte-for-byte the plain
// UFL mw_greedy run (same solution, same metrics) — the identity the
// property tests pin. Later phases derive fresh seeds from (seed, phase).
//
// A client participating in phase p gains exactly one assignment (the
// mop-up guarantees it), so after r_j phases client j holds r_j distinct
// open facilities and the result is always feasible.
#pragma once

#include <vector>

#include "core/mw_greedy.h"
#include "core/params.h"
#include "fl/ftfp.h"

namespace dflp::core {

struct FtfpOutcome {
  fl::FtfpSolution solution;
  /// Aggregate over all phases: rounds/messages/bits sum, maxima max.
  net::NetMetrics metrics;
  /// Per-phase simulator metrics, one entry per executed phase.
  std::vector<net::NetMetrics> phase_metrics;
  /// Phase-0 schedule (later phases re-derive from their residuals).
  MwSchedule schedule;
  int phases = 0;
  /// Mop-up interventions summed over phases.
  int mopup_clients = 0;
  /// Recovery-layer counters merged over phases (all-zero unless
  /// `MwParams::reliable`).
  net::ReliableStats transport;
};

/// Runs the exclusion-phase solver end-to-end. The instance must
/// validate (r_j >= 1 and r_j <= degree(j) for every client).
[[nodiscard]] FtfpOutcome run_ftfp_greedy(const fl::FtfpInstance& inst,
                                          const MwParams& params);

/// The residual UFL instance of phase `p` given the coverage collected so
/// far. Exposed for tests; `client_map[res_j]` gives the original id of
/// residual client `res_j`. Facility ids are preserved (forced-open
/// facilities appear with opening cost 0).
struct ResidualInstance {
  fl::Instance instance;
  std::vector<fl::ClientId> client_map;
};
[[nodiscard]] ResidualInstance build_residual(const fl::FtfpInstance& inst,
                                              const fl::FtfpSolution& so_far);

}  // namespace dflp::core
