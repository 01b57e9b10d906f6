#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace dflp::workload {

namespace {

/// Picks `k` distinct values from [0, n) uniformly (partial Fisher–Yates
/// over an index vector; fine for the generator sizes we use).
std::vector<std::int32_t> sample_distinct(std::int32_t n, std::int32_t k,
                                          Rng& rng) {
  DFLP_CHECK(k <= n);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  for (std::int32_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(n - i))) + i;
    std::swap(idx[static_cast<std::size_t>(i)],
              idx[static_cast<std::size_t>(j)]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

}  // namespace

fl::Instance uniform_random(const UniformParams& params, std::uint64_t seed) {
  DFLP_CHECK(params.num_facilities > 0 && params.num_clients > 0);
  DFLP_CHECK(params.opening_lo >= 0 && params.opening_hi >= params.opening_lo);
  DFLP_CHECK(params.connection_lo >= 0 &&
             params.connection_hi >= params.connection_lo);
  Rng rng(seed);
  fl::InstanceBuilder builder;
  const std::int32_t degree =
      std::min(params.client_degree, params.num_facilities);
  DFLP_CHECK(degree >= 1);
  builder.reserve(params.num_facilities, params.num_clients,
                  static_cast<std::size_t>(params.num_clients) *
                      static_cast<std::size_t>(degree));
  for (std::int32_t i = 0; i < params.num_facilities; ++i)
    builder.add_facility(
        rng.uniform_real(params.opening_lo, params.opening_hi));
  for (std::int32_t j = 0; j < params.num_clients; ++j) {
    const fl::ClientId cj = builder.add_client();
    for (std::int32_t i : sample_distinct(params.num_facilities, degree, rng))
      builder.connect(i, cj,
                      rng.uniform_real(params.connection_lo,
                                       params.connection_hi));
  }
  return builder.build();
}

double euclidean_distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

EuclideanInstance euclidean(const EuclideanParams& params,
                            std::uint64_t seed) {
  DFLP_CHECK(params.num_facilities > 0 && params.num_clients > 0);
  DFLP_CHECK(params.side > 0);
  Rng rng(seed);
  EuclideanInstance out;

  std::vector<Point> centers;
  if (params.clusters > 0) {
    centers.reserve(static_cast<std::size_t>(params.clusters));
    for (std::int32_t c = 0; c < params.clusters; ++c)
      centers.push_back({rng.uniform_real(0, params.side),
                         rng.uniform_real(0, params.side)});
  }
  auto sample_point = [&]() -> Point {
    if (centers.empty())
      return {rng.uniform_real(0, params.side),
              rng.uniform_real(0, params.side)};
    const auto& c = centers[rng.uniform_u64(centers.size())];
    const double spread = params.side / 10.0;
    return {c.x + rng.normal() * spread, c.y + rng.normal() * spread};
  };

  fl::InstanceBuilder builder;
  builder.reserve(params.num_facilities, params.num_clients,
                  params.connect_radius <= 0.0
                      ? static_cast<std::size_t>(params.num_facilities) *
                            static_cast<std::size_t>(params.num_clients)
                      : static_cast<std::size_t>(params.num_clients));
  for (std::int32_t i = 0; i < params.num_facilities; ++i) {
    builder.add_facility(
        rng.uniform_real(params.opening_lo, params.opening_hi));
    out.facility_pos.push_back(sample_point());
  }
  for (std::int32_t j = 0; j < params.num_clients; ++j) {
    builder.add_client();
    out.client_pos.push_back(sample_point());
  }
  for (std::int32_t j = 0; j < params.num_clients; ++j) {
    const Point& pc = out.client_pos[static_cast<std::size_t>(j)];
    // Find the nearest facility: always connected so feasibility holds.
    std::int32_t nearest = 0;
    double nearest_d = std::numeric_limits<double>::infinity();
    for (std::int32_t i = 0; i < params.num_facilities; ++i) {
      const double d =
          euclidean_distance(out.facility_pos[static_cast<std::size_t>(i)],
                             pc);
      if (d < nearest_d) {
        nearest_d = d;
        nearest = i;
      }
    }
    for (std::int32_t i = 0; i < params.num_facilities; ++i) {
      const double d =
          euclidean_distance(out.facility_pos[static_cast<std::size_t>(i)],
                             pc);
      const bool in_radius =
          params.connect_radius <= 0.0 || d <= params.connect_radius;
      if (i == nearest || in_radius) builder.connect(i, j, d);
    }
  }
  out.instance = builder.build();
  return out;
}

fl::Instance power_law_spread(const PowerLawParams& params,
                              std::uint64_t seed) {
  DFLP_CHECK(params.num_facilities > 0 && params.num_clients > 0);
  DFLP_CHECK(params.rho_target >= 1.0);
  Rng rng(seed);
  const double log_rho = std::log(params.rho_target);
  auto log_uniform = [&]() { return std::exp(rng.uniform01() * log_rho); };

  fl::InstanceBuilder builder;
  const std::int32_t degree =
      std::min(params.client_degree, params.num_facilities);
  builder.reserve(params.num_facilities, params.num_clients,
                  static_cast<std::size_t>(params.num_clients) *
                      static_cast<std::size_t>(std::max(1, degree)));
  for (std::int32_t i = 0; i < params.num_facilities; ++i)
    builder.add_facility(log_uniform());
  for (std::int32_t j = 0; j < params.num_clients; ++j) {
    const fl::ClientId cj = builder.add_client();
    for (std::int32_t i : sample_distinct(params.num_facilities, degree, rng))
      builder.connect(i, cj, log_uniform());
  }
  return builder.build();
}

fl::Instance greedy_tight(std::int32_t num_clients, double eps) {
  DFLP_CHECK(num_clients >= 2);
  DFLP_CHECK(eps > 0);
  const std::int64_t facilities = std::int64_t{num_clients} + 1;
  DFLP_CHECK_MSG(facilities <= std::numeric_limits<std::int32_t>::max(),
                 "greedy_tight: " << num_clients << " clients need "
                                  << facilities
                                  << " facilities, past the int32 id limit");
  fl::InstanceBuilder builder;
  builder.reserve(static_cast<std::int32_t>(facilities), num_clients,
                  2 * static_cast<std::size_t>(num_clients));
  // Facility j (j < n) covers client j only, at opening cost 1/(n-j);
  // greedy's cost-effectiveness ladder walks these from cheap to dear.
  for (std::int32_t j = 0; j < num_clients; ++j)
    builder.add_facility(1.0 / static_cast<double>(num_clients - j));
  const fl::FacilityId all = builder.add_facility(1.0 + eps);
  for (std::int32_t j = 0; j < num_clients; ++j) {
    const fl::ClientId cj = builder.add_client();
    builder.connect(j, cj, 0.0);
    builder.connect(all, cj, 0.0);
  }
  return builder.build();
}

fl::Instance star(std::int32_t num_spokes, std::int32_t clients_per_spoke,
                  std::uint64_t seed) {
  DFLP_CHECK(num_spokes >= 1 && clients_per_spoke >= 1);
  Rng rng(seed);
  fl::InstanceBuilder builder;
  builder.reserve(num_spokes + 1, num_spokes * clients_per_spoke,
                  2 * static_cast<std::size_t>(num_spokes) *
                      static_cast<std::size_t>(clients_per_spoke));
  const fl::FacilityId hub = builder.add_facility(10.0);
  std::vector<fl::FacilityId> spokes;
  spokes.reserve(static_cast<std::size_t>(num_spokes));
  for (std::int32_t s = 0; s < num_spokes; ++s)
    spokes.push_back(builder.add_facility(rng.uniform_real(50.0, 200.0)));
  for (std::int32_t s = 0; s < num_spokes; ++s) {
    for (std::int32_t t = 0; t < clients_per_spoke; ++t) {
      const fl::ClientId j = builder.add_client();
      builder.connect(hub, j, rng.uniform_real(1.0, 3.0));
      builder.connect(spokes[static_cast<std::size_t>(s)], j,
                      rng.uniform_real(0.5, 1.5));
    }
  }
  return builder.build();
}

std::string family_name(Family family) {
  switch (family) {
    case Family::kUniform:
      return "uniform";
    case Family::kEuclidean:
      return "euclidean";
    case Family::kPowerLaw:
      return "powerlaw";
    case Family::kGreedyTight:
      return "greedy-tight";
    case Family::kStar:
      return "star";
  }
  return "unknown";
}

FamilyShape family_shape(Family family, std::int64_t size) {
  switch (family) {
    case Family::kUniform:
    case Family::kEuclidean:
    case Family::kPowerLaw:
      return {std::max<std::int64_t>(2, size / 5), size};
    case Family::kGreedyTight:
      return {size + 1, size};
    case Family::kStar: {
      const std::int64_t spokes = std::max<std::int64_t>(1, size / 10);
      return {spokes + 1, 10 * spokes};
    }
  }
  return {};
}

fl::Instance make_family_instance(Family family, std::int32_t size,
                                  std::uint64_t seed) {
  DFLP_CHECK(size >= 4);
  const FamilyShape shape = family_shape(family, size);
  DFLP_CHECK_MSG(shape.facilities + shape.clients <=
                     std::numeric_limits<std::int32_t>::max(),
                 family_name(family) << " size " << size
                                     << " passes the int32 node limit");
  const auto m = static_cast<std::int32_t>(shape.facilities);
  switch (family) {
    case Family::kUniform: {
      UniformParams p;
      p.num_facilities = m;
      p.num_clients = size;
      p.client_degree = std::min<std::int32_t>(8, m);
      return uniform_random(p, seed);
    }
    case Family::kEuclidean: {
      EuclideanParams p;
      p.num_facilities = m;
      p.num_clients = size;
      p.clusters = std::max<std::int32_t>(1, m / 5);
      return euclidean(p, seed).instance;
    }
    case Family::kPowerLaw: {
      PowerLawParams p;
      p.num_facilities = m;
      p.num_clients = size;
      p.client_degree = std::min<std::int32_t>(8, m);
      return power_law_spread(p, seed);
    }
    case Family::kGreedyTight:
      return greedy_tight(size);
    case Family::kStar:
      return star(m - 1, 10, seed);
  }
  DFLP_CHECK_MSG(false, "unreachable family");
  return greedy_tight(4);
}

}  // namespace dflp::workload
