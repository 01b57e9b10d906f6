// Metric UFL instances: generators, the bipartite metric closure, and a
// triangle-inequality validator.
//
// The metric solver suite (seq/mettu_plaxton, seq/jms, core/metric_baseline,
// core/clique_fl) carries approximation guarantees only when connection
// costs obey the metric axioms. A bipartite instance exposes no direct
// facility–facility or client–client distances, so "metric" here means the
// costs embed into some metric space — equivalently, they satisfy the
// *quadrangle inequality*
//     c(i, j) <= c(i, j') + c(i', j') + c(i', j)
// for every pair of facilities i, i' and clients j, j' where the right-hand
// edges exist. `check_metric` verifies exactly that (via the closure below)
// and throws a named CheckError on the first violation.
//
// `MetricInstance` couples an Instance with the generator's explicit 2-D
// sites; algorithms in the "metric is local knowledge" model (the congested
// clique, arXiv:1308.2473) read facility–facility distances from the sites
// in O(1) instead of paying the O(n·m^2) closure.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/instance.h"

namespace dflp::fl {

/// A generator-provided site in the plane.
struct MetricPoint {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two sites.
[[nodiscard]] double metric_distance(MetricPoint a, MetricPoint b) noexcept;

/// A UFL instance whose connection costs are realized as Euclidean
/// distances between explicit facility/client sites (complete bipartite, so
/// every client can reach every facility). The sites are the "metric as
/// local knowledge" side channel the clique algorithms assume: node i can
/// evaluate d(i, i') without any communication.
struct MetricInstance {
  Instance instance;
  std::vector<MetricPoint> facility_pos;  ///< size num_facilities()
  std::vector<MetricPoint> client_pos;    ///< size num_clients()
};

/// Knobs of the clustered-plane generator.
struct MetricParams {
  std::int32_t facilities = 32;
  std::int32_t clients = 128;
  /// Facility/client sites cluster around this many seeded centers (1 =
  /// uniform in the square). Clustering is what gives metric instances
  /// non-trivial facility conflict structure.
  int clusters = 8;
  double side = 1000.0;           ///< bounding square [0, side]^2
  double cluster_spread = 60.0;   ///< max |offset| from the cluster center
  double opening_min = 200.0;     ///< opening costs uniform in this range
  double opening_max = 800.0;
};

/// Seeded deterministic metric workload: cluster centers uniform in the
/// square, sites uniform in a box around their (round-robin) center,
/// opening costs uniform, connection costs the exact Euclidean distances
/// over the complete bipartite graph.
[[nodiscard]] MetricInstance make_metric_instance(const MetricParams& params,
                                                  std::uint64_t seed);

/// The bipartite metric closure: a row-major m×m matrix with
///     D(i, i') = min_j (c_ij + c_i'j)
/// over shared clients (+inf when i and i' share none; 0 on the diagonal).
/// This is the tightest facility–facility bound derivable from the instance
/// alone, the distance Mettu–Plaxton-style open rules consult. O(sum over
/// clients of degree^2) — quadratic in m on complete bipartite instances.
[[nodiscard]] std::vector<double> facility_metric_closure(
    const Instance& inst);

/// Validates the quadrangle inequality over every (facility, facility,
/// client) triple reachable through the closure, with relative tolerance
/// `rel_tol`. Throws dflp::CheckError naming the violating triple
/// ("triangle inequality violated: ...") on the first failure; returns
/// normally iff the instance is metric-consistent. Same complexity as the
/// closure.
void check_metric(const Instance& inst, double rel_tol = 1e-9);

}  // namespace dflp::fl
