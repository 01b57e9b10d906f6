// Super-fast facility location in the congested clique, after
// Berns–Hegeman–Pemmaraju (arXiv:1308.2473): an O(log log n)-round-style
// O(1)-approximation for *metric* UFL when every pair of nodes can exchange
// one O(log n)-bit message per round (netsim Topology::kClique).
//
// Reconstruction. Facilities and clients are network nodes (core/bipartite
// layout) on the clique. Each facility i locally computes its Mettu–Plaxton
// radius r_i (sum_j max(0, r_i - c_ij) = f_i — a function of its own cost
// column) and quantizes it through the shared CostCodec so every node
// reasons about identical values. The open set is a ruling set of the
// *conflict graph* H: i ~ i' iff d(i, i') <= 2 * min(r_i, r_i'), with
// facility–facility distances read from the metric side channel
// (generator sites, or the bipartite closure). H is resolved by BHP-style
// doubly-exponential sampling: in iteration t every undecided facility
// nominates itself with probability p_t = min(1, 2^(2^t) / m) and
// broadcasts its radius code; a nominee opens iff no conflicting nominee
// has a smaller (radius code, id) key, and an undecided facility retires as
// soon as a conflicting facility announces OPEN. p_t reaches 1 after
// ~log2 log2 m iterations, which is what keeps the measured round count
// sub-logarithmic in n (E15 gates this). Every facility broadcasts exactly
// one OPEN or RETIRE; clients count the m decisions, connect to the
// cheapest open facility, and halt.
//
// Every inbox is folded order-insensitively (min-key over candidates,
// per-facility decision flags), every coin comes from the node's own
// (seed, node) stream, so solves are bit-identical across delivery orders
// and the duplication hazard; under message *loss* the run
// cannot complete and fails loudly with a named CheckError instead.
#pragma once

#include <cstdint>

#include "fl/instance.h"
#include "fl/metric.h"
#include "fl/solution.h"
#include "netsim/fault.h"
#include "netsim/metrics.h"
#include "netsim/network.h"

namespace dflp::core {

struct CliqueFlParams {
  std::uint64_t seed = 1;
  /// Ignored: the simulator steps every round on one thread. Kept only
  /// for callers that still set it.
  int num_threads = 1;
  net::DeliveryOrder delivery = net::DeliveryOrder::kBySource;
  /// Fault injection forwarded to the network (tests only; the protocol
  /// detects undeliverable progress and throws).
  net::FaultPlan::Options faults;
  /// Hard stop for the (loss-free, always-terminating) protocol.
  std::uint64_t max_rounds = 10000;
  /// Optional round tracer (netsim/trace.h), not owned.
  net::Tracer* tracer = nullptr;
};

struct CliqueFlOutcome {
  fl::IntegralSolution solution;
  net::NetMetrics metrics;
  /// Sampling iterations until the last facility decided (the quantity
  /// that grows like log log m).
  std::uint64_t iterations = 0;
  int open_facilities = 0;
};

/// Metric side-channel run: facility–facility distances are evaluated from
/// the generator's sites in O(1) — the model's "metric is local knowledge"
/// assumption, and the form E15 benchmarks.
[[nodiscard]] CliqueFlOutcome run_clique_fl(const fl::MetricInstance& minst,
                                            const CliqueFlParams& params);

/// Closure-based run for plain instances: facility distances are the
/// bipartite metric closure (fl/metric.h), precomputed once — O(n·m^2) on
/// complete bipartite instances, so intended for tests and small CLI runs.
/// The instance must be complete bipartite (every client adjacent to every
/// facility); anything else throws.
[[nodiscard]] CliqueFlOutcome run_clique_fl(const fl::Instance& inst,
                                            const CliqueFlParams& params);

}  // namespace dflp::core
