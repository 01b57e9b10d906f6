#include "core/bipartite.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace dflp::core {

namespace {

/// Writes K_{m,n}'s rows in slot order: the layout bipartite.h describes,
/// with each node's cost indices scattered from one pass over its
/// cost-sorted list.
void fill_complete(const fl::Instance& inst, net::Adjacency& a,
                   std::vector<std::int32_t>& cost) {
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  const auto n = static_cast<std::size_t>(inst.num_clients());
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t row = i * n;
    std::iota(a.adj.data() + row, a.adj.data() + row + n,
              static_cast<net::NodeId>(m));
    std::fill_n(a.rev.data() + row, n, static_cast<std::int32_t>(i));
    const auto edges = inst.facility_edges(static_cast<fl::FacilityId>(i));
    for (std::size_t t = 0; t < n; ++t)
      cost[row + static_cast<std::size_t>(edges[t].client)] =
          static_cast<std::int32_t>(t);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t row = m * n + j * m;
    std::iota(a.adj.data() + row, a.adj.data() + row + m, net::NodeId{0});
    std::fill_n(a.rev.data() + row, m, static_cast<std::int32_t>(j));
    const auto edges = inst.client_edges(static_cast<fl::ClientId>(j));
    for (std::size_t s = 0; s < m; ++s)
      cost[row + static_cast<std::size_t>(edges[s].facility)] =
          static_cast<std::int32_t>(s);
  }
}

}  // namespace

net::Adjacency build_bipartite_adjacency(const fl::Instance& inst,
                                         EdgeTable& table) {
  const auto m = static_cast<std::size_t>(inst.num_facilities());
  const auto n = static_cast<std::size_t>(inst.num_clients());
  net::Adjacency a;
  std::vector<std::int32_t>& off = a.offset;
  off.resize(m + n + 1);
  off[0] = 0;
  for (std::size_t i = 0; i < m; ++i) {
    off[i + 1] = off[i] + static_cast<std::int32_t>(
                              inst.facility_edges(static_cast<fl::FacilityId>(i))
                                  .size());
  }
  for (std::size_t j = 0; j < n; ++j) {
    off[m + j + 1] = off[m + j] + static_cast<std::int32_t>(
                                      inst.client_edges(static_cast<fl::ClientId>(j))
                                          .size());
  }
  const auto slots = static_cast<std::size_t>(off[m + n]);
  a.adj.resize(slots);
  a.rev.resize(slots);
  std::vector<std::int32_t>& cost = table.cost_index_;
  cost.resize(slots);
  table.offset_ = off;
  // Every pair is an edge exactly when there are m·n of them, since an
  // instance holds no duplicate edge (InstanceBuilder::build and
  // fl::apply's splice reject them).
  if (inst.num_edges() == m * n) {
    fill_complete(inst, a, cost);
    return a;
  }
  std::vector<std::int32_t> cursor(off.begin(), off.end() - 1);

  // Pass 1: facilities in ascending id append themselves to their
  // clients' lists, so every client's list fills ascending. The edge's
  // facility-side cost index waits in the client's slot until pass 2.
  for (std::size_t i = 0; i < m; ++i) {
    const auto edges = inst.facility_edges(static_cast<fl::FacilityId>(i));
    for (std::size_t t = 0; t < edges.size(); ++t) {
      const auto q = static_cast<std::size_t>(
          cursor[m + static_cast<std::size_t>(edges[t].client)]++);
      a.adj[q] = static_cast<net::NodeId>(i);
      cost[q] = static_cast<std::int32_t>(t);
    }
  }
  // Pass 2: clients in ascending id append themselves to their
  // facilities' lists (ascending again). Both slots of each edge are now
  // known, which gives both reverse positions, and the parked cost index
  // moves to the facility's slot.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t v = m + j;
    const auto vb = static_cast<std::size_t>(off[v]);
    for (std::size_t q = vb; q < static_cast<std::size_t>(off[v + 1]); ++q) {
      const auto i = static_cast<std::size_t>(a.adj[q]);
      const auto p = static_cast<std::size_t>(cursor[i]++);
      a.adj[p] = static_cast<net::NodeId>(v);
      cost[p] = cost[q];
      a.rev[p] = static_cast<std::int32_t>(q - vb);
      a.rev[q] = static_cast<std::int32_t>(p) - off[i];
    }
  }
  // Pass 3: client cost indices. Walking the clients in ascending id, each
  // facility meets its clients in list order whatever order a client
  // visits its facilities in, so a fresh facility cursor finds j's slot in
  // i's list, and its reverse position j's slot for i.
  std::copy(off.begin(), off.begin() + static_cast<std::ptrdiff_t>(m),
            cursor.begin());
  for (std::size_t j = 0; j < n; ++j) {
    const auto vb = static_cast<std::size_t>(off[m + j]);
    const auto edges = inst.client_edges(static_cast<fl::ClientId>(j));
    for (std::size_t s = 0; s < edges.size(); ++s) {
      const auto i = static_cast<std::size_t>(edges[s].facility);
      const auto p = static_cast<std::size_t>(cursor[i]++);
      cost[vb + static_cast<std::size_t>(a.rev[p])] =
          static_cast<std::int32_t>(s);
    }
  }
  return a;
}

net::Network make_bipartite_network(const fl::Instance& inst,
                                    net::Network::Options options,
                                    EdgeTable& table) {
  net::Network net(static_cast<std::size_t>(inst.num_facilities() +
                                             inst.num_clients()),
                   options);
  net.finalize(build_bipartite_adjacency(inst, table));
  return net;
}

net::Network make_bipartite_network(const fl::Instance& inst,
                                    net::Network::Options options) {
  EdgeTable table;
  return make_bipartite_network(inst, options, table);
}

}  // namespace dflp::core
