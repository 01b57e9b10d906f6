#include "fl/instance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace dflp::fl {

void InstanceBuilder::reserve(std::int32_t num_facilities,
                              std::int32_t num_clients,
                              std::size_t num_edges) {
  DFLP_CHECK_MSG(num_facilities >= 0 && num_clients >= 0,
                 "reserve needs non-negative counts; got "
                     << num_facilities << " facilities, " << num_clients
                     << " clients");
  constexpr auto kMaxEdges =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  DFLP_CHECK_MSG(num_edges <= kMaxEdges,
                 num_edges << " edges pass the " << kMaxEdges
                           << " that an instance's int32 offsets hold");
  opening_.reserve(opening_.size() + static_cast<std::size_t>(num_facilities));
  edges_.reserve(edges_.size() + num_edges);
  // Clients are just a counter today; the parameter keeps the hint
  // self-describing (and future-proofs per-client builder state).
  (void)num_clients;
}

FacilityId InstanceBuilder::add_facility(Cost opening_cost) {
  DFLP_CHECK_MSG(std::isfinite(opening_cost) && opening_cost >= 0.0,
                 "opening cost must be finite and non-negative, got "
                     << opening_cost);
  opening_.push_back(opening_cost);
  return static_cast<FacilityId>(opening_.size() - 1);
}

ClientId InstanceBuilder::add_client() { return num_clients_++; }

void InstanceBuilder::connect(FacilityId i, ClientId j, Cost cost) {
  DFLP_CHECK_MSG(i >= 0 && static_cast<std::size_t>(i) < opening_.size(),
                 "facility id " << i << " out of range");
  DFLP_CHECK_MSG(j >= 0 && j < num_clients_, "client id " << j
                                                          << " out of range");
  DFLP_CHECK_MSG(std::isfinite(cost) && cost >= 0.0,
                 "connection cost must be finite and non-negative, got "
                     << cost);
  edges_.push_back({i, j, cost});
}

Instance InstanceBuilder::build() {
  DFLP_CHECK_MSG(!opening_.empty(), "instance has no facilities");
  DFLP_CHECK_MSG(num_clients_ > 0, "instance has no clients");

  Instance inst;
  inst.opening_ = std::move(opening_);
  inst.num_clients_ = num_clients_;

  const auto m = static_cast<std::size_t>(inst.opening_.size());
  const auto n = static_cast<std::size_t>(num_clients_);

  // Facility-side CSR, sorted by (cost, client id). Before each list is
  // sorted, a per-client marker pass rejects duplicate (i, j) pairs; lists
  // are visited in facility order, so the first hit names the smallest
  // duplicated facility, and the pass over its list finds its smallest
  // duplicated client.
  {
    std::vector<std::int32_t> deg(m, 0);
    for (const auto& e : edges_) ++deg[static_cast<std::size_t>(e.i)];
    inst.facility_offset_.assign(m + 1, 0);
    for (std::size_t i = 0; i < m; ++i)
      inst.facility_offset_[i + 1] = inst.facility_offset_[i] + deg[i];
    inst.facility_edges_.resize(edges_.size());
    std::vector<std::int32_t> cur(inst.facility_offset_.begin(),
                                  inst.facility_offset_.end() - 1);
    for (const auto& e : edges_)
      inst.facility_edges_[static_cast<std::size_t>(
          cur[static_cast<std::size_t>(e.i)]++)] = {e.j, e.c};
    std::vector<FacilityId> seen_by(n, kNoFacility);
    for (std::size_t i = 0; i < m; ++i) {
      auto begin = inst.facility_edges_.begin() + inst.facility_offset_[i];
      auto end = inst.facility_edges_.begin() + inst.facility_offset_[i + 1];
      ClientId dup = -1;
      for (auto it = begin; it != end; ++it) {
        FacilityId& seen = seen_by[static_cast<std::size_t>(it->client)];
        if (seen == static_cast<FacilityId>(i)) {
          if (dup < 0 || it->client < dup) dup = it->client;
        }
        seen = static_cast<FacilityId>(i);
      }
      DFLP_CHECK_MSG(dup < 0, "duplicate edge (facility=" << i << ", client="
                                                          << dup << ")");
      std::sort(begin, end, [](const FacilityEdge& a, const FacilityEdge& b) {
        if (a.cost != b.cost) return a.cost < b.cost;
        return a.client < b.client;
      });
      inst.max_facility_degree_ = std::max(
          inst.max_facility_degree_, static_cast<int>(end - begin));
    }
  }

  // Client-side CSR, sorted by (cost, facility id).
  {
    std::vector<std::int32_t> deg(n, 0);
    for (const auto& e : edges_) ++deg[static_cast<std::size_t>(e.j)];
    for (std::size_t j = 0; j < n; ++j)
      DFLP_CHECK_MSG(deg[j] > 0, "client " << j
                                           << " has no candidate facility — "
                                              "instance would be infeasible");
    inst.client_offset_.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j)
      inst.client_offset_[j + 1] = inst.client_offset_[j] + deg[j];
    inst.client_edges_.resize(edges_.size());
    std::vector<std::int32_t> cur(inst.client_offset_.begin(),
                                  inst.client_offset_.end() - 1);
    for (const auto& e : edges_)
      inst.client_edges_[static_cast<std::size_t>(
          cur[static_cast<std::size_t>(e.j)]++)] = {e.i, e.c};
    for (std::size_t j = 0; j < n; ++j) {
      auto begin = inst.client_edges_.begin() + inst.client_offset_[j];
      auto end = inst.client_edges_.begin() + inst.client_offset_[j + 1];
      std::sort(begin, end, [](const ClientEdge& a, const ClientEdge& b) {
        if (a.cost != b.cost) return a.cost < b.cost;
        return a.facility < b.facility;
      });
      inst.max_client_degree_ =
          std::max(inst.max_client_degree_, static_cast<int>(end - begin));
    }
  }

  inst.derive_profile();

  // Reset builder.
  num_clients_ = 0;
  edges_.clear();

  return inst;
}

void Instance::derive_profile() {
  CostProfile& cp = profile_;
  auto absorb = [&cp](Cost c) {
    cp.max_value = std::max(cp.max_value, c);
    if (c > 0.0) cp.min_positive = std::min(cp.min_positive, c);
  };
  for (Cost f : opening_) {
    absorb(f);
    cp.total_opening += f;
  }
  for (const auto& e : facility_edges_) {
    absorb(e.cost);
    cp.total_connection += e.cost;
  }
  DFLP_CHECK_MSG(std::isfinite(cp.total_opening + cp.total_connection),
                 "total cost is not finite (opening " << cp.total_opening
                     << " + connection " << cp.total_connection
                     << "); solution costs would overflow");
  cp.rho = std::isfinite(cp.min_positive) && cp.max_value > 0.0
               ? cp.max_value / cp.min_positive
               : 1.0;
}

std::span<const FacilityEdge> Instance::facility_edges(FacilityId i) const {
  DFLP_CHECK(i >= 0 && i < num_facilities());
  const auto idx = static_cast<std::size_t>(i);
  return {facility_edges_.data() + facility_offset_[idx],
          static_cast<std::size_t>(facility_offset_[idx + 1] -
                                   facility_offset_[idx])};
}

std::span<const ClientEdge> Instance::client_edges(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < num_clients());
  const auto idx = static_cast<std::size_t>(j);
  return {client_edges_.data() + client_offset_[idx],
          static_cast<std::size_t>(client_offset_[idx + 1] -
                                   client_offset_[idx])};
}

std::size_t Instance::client_edge_offset(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < num_clients());
  return static_cast<std::size_t>(client_offset_[static_cast<std::size_t>(j)]);
}

Cost Instance::connection_cost(FacilityId i, ClientId j) const {
  // The facility-side list is sorted by cost, not client id, so scan the
  // client's (typically shorter) list instead; it is sorted by cost too, so
  // a linear scan is required — client degrees are small in practice.
  for (const ClientEdge& e : client_edges(j)) {
    if (e.facility == i) return e.cost;
  }
  return std::numeric_limits<Cost>::infinity();
}

Cost Instance::open_all_cost() const {
  Cost total = profile_.total_opening;
  for (ClientId j = 0; j < num_clients(); ++j)
    total += client_edges(j).front().cost;  // sorted: front is cheapest
  return total;
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "UFL(m=" << num_facilities() << ", n=" << num_clients()
     << ", edges=" << num_edges() << ", rho=" << profile_.rho
     << ", maxdeg_f=" << max_facility_degree_
     << ", maxdeg_c=" << max_client_degree_ << ")";
  return os.str();
}

}  // namespace dflp::fl
