// Shared plumbing between the distributed algorithms: mapping a UFL
// instance onto a simulated CONGEST network and giving each node its
// strictly-local view of the instance.
//
// Node layout: facility i -> network node i; client j -> network node m+j.
// A node's constructor receives only what the model lets it know locally:
// its own cost data and the ids/costs of its incident edges. Those edges
// are borrowed, never copied: a facility reads its slice of the instance's
// cost-sorted `facility_edges`, a client its slice of `client_edges`, and
// the run's EdgeTable maps the port a message arrived on (Message::port)
// to the edge's index in that slice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/instance.h"
#include "netsim/network.h"

namespace dflp::core {

[[nodiscard]] inline net::NodeId facility_node(fl::FacilityId i) noexcept {
  return i;
}

[[nodiscard]] inline net::NodeId client_node(const fl::Instance& inst,
                                             fl::ClientId j) noexcept {
  return inst.num_facilities() + j;
}

[[nodiscard]] inline fl::FacilityId node_to_facility(net::NodeId v) noexcept {
  return v;
}

/// The per-run edge table of a bipartite network. Node v's port p is its
/// p-th neighbour in the network's ascending adjacency — the
/// `Message::port` of a delivery from that neighbour — and
/// `cost_index(v)[p]` is the position of that edge in v's cost-ordered
/// instance list (`facility_edges` for a facility, `client_edges` for a
/// client). Cost indices order a node's edges by (cost, peer id), the
/// preference the protocols break ties by. Processes borrow their column
/// for the run, so the table must outlive the network's processes.
class EdgeTable {
 public:
  [[nodiscard]] std::span<const std::int32_t> cost_index(
      net::NodeId v) const noexcept {
    const auto i = static_cast<std::size_t>(v);
    return {cost_index_.data() + offset_[i],
            static_cast<std::size_t>(offset_[i + 1] - offset_[i])};
  }

 private:
  friend net::Adjacency build_bipartite_adjacency(const fl::Instance& inst,
                                                  EdgeTable& table);

  std::vector<std::int32_t> offset_;      ///< the network's CSR offsets
  std::vector<std::int32_t> cost_index_;  ///< parallel to its neighbours
};

/// Builds the bipartite network's sorted CSR adjacency with its
/// reverse-position column (net::Adjacency) and, beside it, `table`, in
/// O(N + E) with no sort. A complete bipartite instance (m·n edges) is
/// filled row by row: every facility lists clients m … m+n−1, every client
/// facilities 0 … m−1, a reverse position is the node's own index on its
/// side, and a cost index inverts the node's cost-sorted list. Any other
/// instance's two cost-sorted edge lists are transposed into ascending
/// neighbour lists, carrying each edge's cost index along. Both paths give
/// the same bytes.
[[nodiscard]] net::Adjacency build_bipartite_adjacency(const fl::Instance& inst,
                                                       EdgeTable& table);

/// The built, process-less bipartite communication network of `inst`
/// with the given options, and its edge table.
[[nodiscard]] net::Network make_bipartite_network(
    const fl::Instance& inst, net::Network::Options options, EdgeTable& table);

/// The same network for callers that index nothing by port.
[[nodiscard]] net::Network make_bipartite_network(
    const fl::Instance& inst, net::Network::Options options);

}  // namespace dflp::core
