// Instance generators.
//
// The PODC'05 paper is analytical and ships no datasets, so the experiment
// suite reconstructs workloads that stress each quantity its bound depends
// on: the facility count m, the cost-spread coefficient rho, metric vs
// non-metric structure, and adversarial greedy behaviour. All generators are
// deterministic functions of their parameters and a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/instance.h"

namespace dflp::workload {

/// Uniform random bipartite instance: every client is connected to
/// `client_degree` distinct random facilities; costs are uniform in the
/// given ranges.
struct UniformParams {
  std::int32_t num_facilities = 20;
  std::int32_t num_clients = 100;
  std::int32_t client_degree = 5;  ///< clamped to num_facilities
  double opening_lo = 1.0;
  double opening_hi = 100.0;
  double connection_lo = 1.0;
  double connection_hi = 20.0;
};
[[nodiscard]] fl::Instance uniform_random(const UniformParams& params,
                                          std::uint64_t seed);

/// A point in the plane (used by the Euclidean generator and the metric
/// baselines that need coordinates).
struct Point {
  double x = 0.0;
  double y = 0.0;
};
[[nodiscard]] double euclidean_distance(const Point& a, const Point& b);

/// Euclidean metric instance: facilities and clients are points in a square
/// of side `side`; connection cost = distance; facilities clustered around
/// `clusters` centers when clusters > 0. `connect_radius == 0` yields a
/// complete bipartite graph (the fully metric case); a positive radius
/// sparsifies, always keeping each client's nearest facility so the
/// instance stays feasible.
struct EuclideanParams {
  std::int32_t num_facilities = 20;
  std::int32_t num_clients = 200;
  std::int32_t clusters = 0;
  double side = 1000.0;
  double opening_lo = 50.0;
  double opening_hi = 400.0;
  double connect_radius = 0.0;
};
struct EuclideanInstance {
  fl::Instance instance;
  std::vector<Point> facility_pos;
  std::vector<Point> client_pos;
};
[[nodiscard]] EuclideanInstance euclidean(const EuclideanParams& params,
                                          std::uint64_t seed);

/// Power-law cost instance controlling the spread coefficient rho: all
/// costs are drawn log-uniformly from [1, rho_target], so the instance's
/// measured rho is ~rho_target. Used by the E3 spread sweep.
struct PowerLawParams {
  std::int32_t num_facilities = 20;
  std::int32_t num_clients = 100;
  std::int32_t client_degree = 5;
  double rho_target = 1e4;
};
[[nodiscard]] fl::Instance power_law_spread(const PowerLawParams& params,
                                            std::uint64_t seed);

/// The classic greedy-tight set-cover family lifted to UFL: `n` clients;
/// singleton facility j covers client j alone with opening cost
/// 1/(n - j), plus one facility covering everything at cost 1 + eps.
/// Connection costs are 0. Centralized greedy pays ~H_n while OPT = 1+eps,
/// so this family separates greedy-like algorithms from the optimum.
[[nodiscard]] fl::Instance greedy_tight(std::int32_t num_clients,
                                        double eps = 0.01);

/// Star instance: one cheap well-connected hub facility plus `num_spokes`
/// expensive decoys each connected to a disjoint pinch of clients. Sanity
/// workload where OPT is obvious (open the hub).
[[nodiscard]] fl::Instance star(std::int32_t num_spokes,
                                std::int32_t clients_per_spoke,
                                std::uint64_t seed);

/// Named families for sweep-style benches.
enum class Family : std::uint8_t {
  kUniform,
  kEuclidean,
  kPowerLaw,
  kGreedyTight,
  kStar,
};
[[nodiscard]] std::string family_name(Family family);

/// Facility and client counts of make_family_instance(family, size, ·), in
/// 64 bits, so that a caller can check a size against the int32 node limit
/// before anything is built.
struct FamilyShape {
  std::int64_t facilities = 0;
  std::int64_t clients = 0;
};
[[nodiscard]] FamilyShape family_shape(Family family, std::int64_t size);

/// Builds a representative instance of `family` scaled so that the client
/// count is ~`size` (facility count scales as ~size/5).
[[nodiscard]] fl::Instance make_family_instance(Family family,
                                                std::int32_t size,
                                                std::uint64_t seed);

}  // namespace dflp::workload
