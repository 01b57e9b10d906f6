// Uncapacitated facility location (UFL) instances.
//
// An instance is a bipartite structure: `m` facilities with opening costs
// `f_i >= 0` and `n` clients; an edge (i, j) with connection cost
// `c_ij >= 0` means client j *can* be served by facility i — and, in the
// distributed setting, that the two can exchange messages. Costs are
// arbitrary (non-metric) unless a generator says otherwise; the metric
// baselines additionally consume the generator-provided coordinates.
//
// Instances are immutable after construction via `InstanceBuilder` (or,
// for the next epoch of a live instance, via the splice behind
// `fl::apply`), so they can be shared freely across algorithms, threads
// and repetitions.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dflp::fl {

using FacilityId = std::int32_t;
using ClientId = std::int32_t;
using Cost = double;

inline constexpr FacilityId kNoFacility = -1;

/// Facility-side view of an edge.
struct FacilityEdge {
  ClientId client = -1;
  Cost cost = 0.0;
};

/// Client-side view of an edge.
struct ClientEdge {
  FacilityId facility = kNoFacility;
  Cost cost = 0.0;
};

/// Aggregate cost statistics of an instance; `rho` is the spread coefficient
/// the PODC'05 bound depends on (max positive cost over min positive cost,
/// across opening and connection costs; 1 for degenerate all-zero
/// instances).
struct CostProfile {
  Cost min_positive = std::numeric_limits<Cost>::infinity();
  Cost max_value = 0.0;
  double rho = 1.0;
  Cost total_opening = 0.0;
  Cost total_connection = 0.0;
};

class Instance;
class InstanceSplice;

/// Mutable builder; `build()` validates and freezes.
class InstanceBuilder {
 public:
  /// Size hints for the coming instance: pre-allocates the facility and
  /// edge staging vectors so large builds are not dominated by vector
  /// regrowth. An allocation hint — over- or under-shooting is harmless —
  /// except that it throws dflp::CheckError, naming the count, before
  /// allocating when the edges would pass the 2^31 - 1 that an instance's
  /// int32 offsets hold.
  void reserve(std::int32_t num_facilities, std::int32_t num_clients,
               std::size_t num_edges);

  /// Returns the new facility's id (dense, in insertion order).
  FacilityId add_facility(Cost opening_cost);

  /// Returns the new client's id (dense, in insertion order).
  ClientId add_client();

  /// Declares that facility `i` can serve client `j` at cost `cost`.
  /// Duplicate (i, j) pairs are rejected at build().
  void connect(FacilityId i, ClientId j, Cost cost);

  /// Validates (every client reachable, costs finite and non-negative, no
  /// duplicate edges) and produces the immutable instance. The builder is
  /// left empty afterwards.
  [[nodiscard]] Instance build();

 private:
  struct RawEdge {
    FacilityId i;
    ClientId j;
    Cost c;
  };
  std::vector<Cost> opening_;
  std::int32_t num_clients_ = 0;
  std::vector<RawEdge> edges_;
};

class Instance {
 public:
  [[nodiscard]] std::int32_t num_facilities() const noexcept {
    return static_cast<std::int32_t>(opening_.size());
  }
  [[nodiscard]] std::int32_t num_clients() const noexcept {
    return num_clients_;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return facility_edges_.size();
  }

  [[nodiscard]] Cost opening_cost(FacilityId i) const {
    return opening_.at(static_cast<std::size_t>(i));
  }

  /// Clients servable by facility i, sorted by ascending connection cost
  /// (ties by client id). The sort order is load-bearing: greedy-style
  /// algorithms take prefixes of this list as candidate stars.
  [[nodiscard]] std::span<const FacilityEdge> facility_edges(
      FacilityId i) const;

  /// Facilities that can serve client j, sorted by ascending connection
  /// cost (ties by facility id).
  [[nodiscard]] std::span<const ClientEdge> client_edges(ClientId j) const;

  /// Offset of client j's first edge in the global client-edge array; used
  /// by FractionalSolution to align its x values with edges.
  [[nodiscard]] std::size_t client_edge_offset(ClientId j) const;
  [[nodiscard]] std::size_t total_client_edges() const noexcept {
    return client_edges_.size();
  }

  /// Connection cost of (i, j), or +inf when not adjacent. Linear in the
  /// client's degree: it scans j's cost-sorted list for i.
  [[nodiscard]] Cost connection_cost(FacilityId i, ClientId j) const;

  [[nodiscard]] int max_facility_degree() const noexcept {
    return max_facility_degree_;
  }
  [[nodiscard]] int max_client_degree() const noexcept {
    return max_client_degree_;
  }

  [[nodiscard]] const CostProfile& cost_profile() const noexcept {
    return profile_;
  }

  /// Upper bound on any solution's cost: open everything, connect everyone
  /// to its cheapest facility.
  [[nodiscard]] Cost open_all_cost() const;

  /// One-line description for logs and table captions.
  [[nodiscard]] std::string describe() const;

  /// Default-constructs an *empty* instance (0 facilities/clients); only
  /// useful as a placeholder to move a built instance into.
  Instance() = default;

 private:
  friend class InstanceBuilder;
  friend class InstanceSplice;  // fl::apply's epoch splice (delta.cc)

  /// Fills the still-default `profile_` from `opening_` and the
  /// facility-side edges in CSR order, and rejects a non-finite total
  /// cost.
  void derive_profile();

  std::vector<Cost> opening_;
  std::int32_t num_clients_ = 0;

  std::vector<std::int32_t> facility_offset_;  // size m+1
  std::vector<FacilityEdge> facility_edges_;   // grouped by facility
  std::vector<std::int32_t> client_offset_;    // size n+1
  std::vector<ClientEdge> client_edges_;       // grouped by client

  int max_facility_degree_ = 0;
  int max_client_degree_ = 0;
  CostProfile profile_;
};

}  // namespace dflp::fl
