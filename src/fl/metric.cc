#include "fl/metric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace dflp::fl {

double metric_distance(MetricPoint a, MetricPoint b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

MetricInstance make_metric_instance(const MetricParams& params,
                                    std::uint64_t seed) {
  DFLP_CHECK_MSG(params.facilities > 0 && params.clients > 0,
                 "metric workload needs facilities and clients; got "
                     << params.facilities << "/" << params.clients);
  DFLP_CHECK_MSG(params.clusters >= 1,
                 "metric workload needs >= 1 cluster; got " << params.clusters);
  DFLP_CHECK_MSG(params.side > 0.0 && params.cluster_spread >= 0.0,
                 "degenerate metric geometry: side=" << params.side
                                                     << " spread="
                                                     << params.cluster_spread);
  DFLP_CHECK_MSG(params.opening_min >= 0.0 &&
                     params.opening_max >= params.opening_min,
                 "bad opening-cost range [" << params.opening_min << ", "
                                            << params.opening_max << "]");

  Rng rng(seed);
  std::vector<MetricPoint> centers;
  centers.reserve(static_cast<std::size_t>(params.clusters));
  for (int c = 0; c < params.clusters; ++c)
    centers.push_back({rng.uniform_real(0.0, params.side),
                       rng.uniform_real(0.0, params.side)});
  const auto place = [&](std::size_t index) {
    const MetricPoint& center =
        centers[index % static_cast<std::size_t>(params.clusters)];
    const double s = params.cluster_spread;
    return MetricPoint{center.x + rng.uniform_real(-s, s),
                       center.y + rng.uniform_real(-s, s)};
  };

  MetricInstance out;
  out.facility_pos.reserve(static_cast<std::size_t>(params.facilities));
  out.client_pos.reserve(static_cast<std::size_t>(params.clients));
  InstanceBuilder b;
  b.reserve(params.facilities, params.clients,
            static_cast<std::size_t>(params.facilities) *
                static_cast<std::size_t>(params.clients));
  for (std::int32_t i = 0; i < params.facilities; ++i) {
    out.facility_pos.push_back(place(static_cast<std::size_t>(i)));
    b.add_facility(rng.uniform_real(params.opening_min, params.opening_max));
  }
  for (std::int32_t j = 0; j < params.clients; ++j) {
    out.client_pos.push_back(place(static_cast<std::size_t>(j)));
    b.add_client();
  }
  // Complete bipartite with exact Euclidean costs — metric by construction
  // (check_metric holds with zero tolerance up to floating-point rounding).
  for (std::int32_t i = 0; i < params.facilities; ++i) {
    const MetricPoint fp = out.facility_pos[static_cast<std::size_t>(i)];
    for (std::int32_t j = 0; j < params.clients; ++j)
      b.connect(i, j,
                metric_distance(fp,
                                out.client_pos[static_cast<std::size_t>(j)]));
  }
  out.instance = b.build();
  return out;
}

std::vector<double> facility_metric_closure(const Instance& inst) {
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  std::vector<double> closure(m * m,
                              std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < m; ++i) closure[i * m + i] = 0.0;
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const std::span<const ClientEdge> edges = inst.client_edges(j);
    for (std::size_t a = 0; a < edges.size(); ++a) {
      const auto ia = static_cast<std::size_t>(edges[a].facility);
      for (std::size_t bdx = a + 1; bdx < edges.size(); ++bdx) {
        const auto ib = static_cast<std::size_t>(edges[bdx].facility);
        const double through = edges[a].cost + edges[bdx].cost;
        if (through < closure[ia * m + ib]) {
          closure[ia * m + ib] = through;
          closure[ib * m + ia] = through;
        }
      }
    }
  }
  return closure;
}

void check_metric(const Instance& inst, double rel_tol) {
  DFLP_CHECK_MSG(rel_tol >= 0.0, "negative tolerance " << rel_tol);
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  const std::vector<double> closure = facility_metric_closure(inst);
  // The quadrangle inequality c(i,j) <= c(i,j') + c(i',j') + c(i',j),
  // minimized over the bridging client j', is exactly
  //     |c(i,j) - c(i',j)| <= D(i,i')
  // for every client j adjacent to both i and i'.
  for (ClientId j = 0; j < inst.num_clients(); ++j) {
    const std::span<const ClientEdge> edges = inst.client_edges(j);
    for (std::size_t a = 0; a < edges.size(); ++a) {
      for (std::size_t bdx = a + 1; bdx < edges.size(); ++bdx) {
        const ClientEdge& ea = edges[a];
        const ClientEdge& eb = edges[bdx];
        const double gap = std::abs(ea.cost - eb.cost);
        const double bridge =
            closure[static_cast<std::size_t>(ea.facility) * m +
                    static_cast<std::size_t>(eb.facility)];
        const double slack =
            rel_tol * std::max({1.0, ea.cost, eb.cost, bridge});
        DFLP_CHECK_MSG(
            gap <= bridge + slack,
            "triangle inequality violated: |c(i=" << ea.facility << ", j="
                << j << ")=" << ea.cost << " - c(i'=" << eb.facility
                << ", j=" << j << ")=" << eb.cost
                << "| exceeds the facility closure D(i,i')=" << bridge);
      }
    }
  }
}

}  // namespace dflp::fl
