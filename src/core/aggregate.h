// Distributed bounds discovery: BFS election + convergecast aggregation.
//
// The derived schedule (core/params.h) assumes nodes know a-priori bounds
// on m, rho and the maximum degree — the standard "poly(N) upper bound"
// assumption of the paper. This module removes the assumption when a
// deployment prefers to *measure*: an O(diameter)-round CONGEST protocol
// that, per connected component,
//
//   1. floods the minimum node id (electing a component root) while
//      gossiping min/max cost exponents and the maximum degree (idempotent
//      aggregates: pure flooding suffices);
//   2. builds the implicit BFS tree rooted at the winner (parent = the
//      neighbour that first delivered the winning id) and convergecasts the
//      facility count m (a sum — this genuinely needs the tree);
//   3. broadcasts the finished bounds down the tree.
//
// Costs are transported as IEEE exponent codes (~12 bits): the spread
// estimate is within a factor 2 per endpoint, which the geometric threshold
// ladder absorbs. Every message fits the CONGEST budget.
//
// The main entry point runs the protocol on a UFL instance's bipartite
// network and returns each node's learned bounds plus the exact metrics, so
// tests can verify agreement with ground truth and the O(diameter) round
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/instance.h"
#include "netsim/metrics.h"
#include "netsim/network.h"

namespace dflp::core {

/// Bounds one node learned about its connected component.
struct ComponentBounds {
  std::int64_t root = -1;         ///< elected component leader (node id)
  std::int64_t facility_count = 0;  ///< m of the component
  double min_positive_cost = 0.0;   ///< within factor 2 (exponent codes)
  double max_cost = 0.0;            ///< within factor 2
  int max_degree = 0;

  /// Spread estimate rho = max/min (>= 1), within a factor 4.
  [[nodiscard]] double rho() const {
    if (min_positive_cost <= 0.0 || max_cost <= 0.0) return 1.0;
    return max_cost / min_positive_cost;
  }
};

struct DiscoveryOutcome {
  /// Per network node (facility i -> node i, client j -> node m+j).
  std::vector<ComponentBounds> bounds;
  net::NetMetrics metrics;
};

/// IEEE-exponent cost code used on the wire: 0 encodes 0; otherwise
/// code = floor(log2(value)) + 1076 (always positive for finite doubles).
[[nodiscard]] std::int64_t exp_code(double value);
/// Lower edge of the code's bucket: decode(encode(v)) in (v/2, v].
[[nodiscard]] double exp_decode(std::int64_t code);

/// Runs discovery on `inst`'s bipartite network. `diameter_bound` caps the
/// flooding phases; pass 0 to use the safe bound N (any component's
/// diameter is < N). Rounds used ~ 3 * actual eccentricity + O(1).
/// `delivery` is the inbox ordering, an execution knob only: results are
/// bit-identical for every order.
[[nodiscard]] DiscoveryOutcome discover_bounds(
    const fl::Instance& inst, std::uint64_t seed = 1, int diameter_bound = 0,
    net::DeliveryOrder delivery = net::DeliveryOrder::kBySource);

}  // namespace dflp::core
