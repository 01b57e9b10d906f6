#include "fl/delta.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace dflp::fl {

Delta Delta::client_arrive(NodeKey client, std::vector<KeyedEdge> edges) {
  Delta d;
  d.kind = Kind::kClientArrive;
  d.client = client;
  d.edges = std::move(edges);
  return d;
}

Delta Delta::client_depart(NodeKey client) {
  Delta d;
  d.kind = Kind::kClientDepart;
  d.client = client;
  return d;
}

Delta Delta::facility_open(NodeKey facility, Cost opening_cost,
                           std::vector<KeyedEdge> edges) {
  Delta d;
  d.kind = Kind::kFacilityOpen;
  d.facility = facility;
  d.cost = opening_cost;
  d.edges = std::move(edges);
  return d;
}

Delta Delta::facility_close(NodeKey facility) {
  Delta d;
  d.kind = Kind::kFacilityClose;
  d.facility = facility;
  return d;
}

Delta Delta::edge_cost_change(NodeKey facility, NodeKey client,
                              Cost new_cost) {
  Delta d;
  d.kind = Kind::kEdgeCostChange;
  d.facility = facility;
  d.client = client;
  d.cost = new_cost;
  return d;
}

namespace {

/// Binary search in a strictly-increasing key vector; -1 when absent.
std::int32_t key_index(const std::vector<NodeKey>& keys, NodeKey key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return static_cast<std::int32_t>(it - keys.begin());
}

void check_keys_strictly_increasing(const std::vector<NodeKey>& keys,
                                    const char* side) {
  for (std::size_t t = 1; t < keys.size(); ++t)
    DFLP_CHECK_MSG(keys[t - 1] < keys[t],
                   side << " keys must be strictly increasing, got "
                        << keys[t - 1] << " before " << keys[t]);
}

struct EdgeKeyHash {
  std::size_t operator()(const std::pair<NodeKey, NodeKey>& e) const {
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(e.first) * 0x9E3779B97F4A7C15ULL ^
              static_cast<std::uint64_t>(e.second)));
  }
};

/// The check InstanceBuilder::connect makes, with its message.
void check_connection_cost(Cost cost) {
  DFLP_CHECK_MSG(std::isfinite(cost) && cost >= 0.0,
                 "connection cost must be finite and non-negative, got "
                     << cost);
}

/// One edit to a CSR side: `peer` joins (or is re-priced in) row `row`.
struct RowEdit {
  std::int32_t row;
  std::int32_t peer;
  Cost cost;
};

bool by_row_then_peer(const RowEdit& a, const RowEdit& b) {
  return a.row != b.row ? a.row < b.row : a.peer < b.peer;
}

/// Splices one side of the CSR (facility rows or client rows). Surviving
/// rows are copied in order with removed peers dropped and peer ids
/// renumbered; renumbering is monotone, so each copy stays in (cost, peer)
/// order. New rows follow. A row that gains an added edge or holds a
/// re-priced one is sorted again. `added` and `repriced` are sorted by
/// (row, peer).
template <typename RowEdge>
void splice_side(const std::vector<std::int32_t>& prev_offset,
                 const std::vector<RowEdge>& prev_edges,
                 std::int32_t RowEdge::*peer,
                 const std::vector<std::int32_t>& row_to_new,
                 const std::vector<std::int32_t>& peer_to_new,
                 std::size_t rows, std::span<const RowEdit> added,
                 std::span<const RowEdit> repriced,
                 std::vector<std::int32_t>& offset,
                 std::vector<RowEdge>& edges, int& max_degree) {
  offset.assign(rows + 1, 0);
  edges.clear();
  edges.reserve(prev_edges.size() + added.size());
  std::size_t row = 0;
  std::size_t a = 0;
  std::size_t r = 0;
  const auto finish_row = [&](std::size_t begin) {
    const auto id = static_cast<std::int32_t>(row);
    bool resort = false;
    for (; r < repriced.size() && repriced[r].row == id; ++r) {
      for (std::size_t k = begin; k < edges.size(); ++k) {
        if (edges[k].*peer != repriced[r].peer) continue;
        edges[k].cost = repriced[r].cost;
        resort = true;
        break;
      }
    }
    for (; a < added.size() && added[a].row == id; ++a) {
      RowEdge e;
      e.*peer = added[a].peer;
      e.cost = added[a].cost;
      edges.push_back(e);
      resort = true;
    }
    if (resort) {
      std::sort(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                edges.end(), [peer](const RowEdge& x, const RowEdge& y) {
                  if (x.cost != y.cost) return x.cost < y.cost;
                  return x.*peer < y.*peer;
                });
    }
    offset[row + 1] = static_cast<std::int32_t>(edges.size());
    max_degree =
        std::max(max_degree, static_cast<int>(edges.size() - begin));
    ++row;
  };
  for (std::size_t old = 0; old < row_to_new.size(); ++old) {
    if (row_to_new[old] < 0) continue;
    const std::size_t begin = edges.size();
    for (auto k = static_cast<std::size_t>(prev_offset[old]);
         k < static_cast<std::size_t>(prev_offset[old + 1]); ++k) {
      const std::int32_t p =
          peer_to_new[static_cast<std::size_t>(prev_edges[k].*peer)];
      if (p < 0) continue;
      edges.push_back(prev_edges[k]);
      edges.back().*peer = p;
    }
    finish_row(begin);
  }
  while (row < rows) finish_row(edges.size());
}

}  // namespace

/// Builds the next epoch's instance from the previous one's CSR arrays
/// with a few linear passes, instead of replaying every edge through
/// InstanceBuilder. The result equals InstanceBuilder::build() on the same
/// final topology (the scratch build stays the reference in the tests),
/// and so do its checks and messages.
class InstanceSplice {
 public:
  /// An edge in the next epoch's dense ids.
  struct Edge {
    FacilityId i;
    ClientId j;
    Cost c;
  };

  /// What apply() hands the splice.
  struct Edits {
    std::vector<std::int32_t> old_to_new_f;  ///< -1: closed
    std::vector<std::int32_t> old_to_new_c;  ///< -1: departed
    std::int32_t num_facilities = 0;
    std::int32_t num_clients = 0;
    std::vector<Cost> opened;     ///< surviving opens' costs, in log order
    std::vector<Edge> added;      ///< edges with an endpoint new this log
    std::vector<Edge> repriced;   ///< surviving edges, at their new cost
  };

  static Instance splice(const Instance& prev, const Edits& edits) {
    DFLP_CHECK_MSG(edits.num_facilities > 0, "instance has no facilities");
    DFLP_CHECK_MSG(edits.num_clients > 0, "instance has no clients");

    std::vector<RowEdit> f_added;
    std::vector<RowEdit> c_added;
    std::vector<RowEdit> f_repriced;
    std::vector<RowEdit> c_repriced;
    for (const Edge& e : edits.added) {
      f_added.push_back({e.i, e.j, e.c});
      c_added.push_back({e.j, e.i, e.c});
    }
    for (const Edge& e : edits.repriced) {
      f_repriced.push_back({e.i, e.j, e.c});
      c_repriced.push_back({e.j, e.i, e.c});
    }
    for (auto* v : {&f_added, &c_added, &f_repriced, &c_repriced})
      std::sort(v->begin(), v->end(), by_row_then_peer);

    // Surviving edges were unique when they were added, so a duplicate is
    // a pair of added edges; the first in (facility, client) order is the
    // one build() names.
    const auto dup = std::adjacent_find(
        f_added.begin(), f_added.end(), [](const RowEdit& x, const RowEdit& y) {
          return x.row == y.row && x.peer == y.peer;
        });
    DFLP_CHECK_MSG(dup == f_added.end(), "duplicate edge (facility="
                                             << dup->row << ", client="
                                             << dup->peer << ")");

    Instance inst;
    inst.opening_.reserve(static_cast<std::size_t>(edits.num_facilities));
    for (std::size_t i = 0; i < edits.old_to_new_f.size(); ++i) {
      if (edits.old_to_new_f[i] >= 0) inst.opening_.push_back(prev.opening_[i]);
    }
    inst.opening_.insert(inst.opening_.end(), edits.opened.begin(),
                         edits.opened.end());
    inst.num_clients_ = edits.num_clients;

    splice_side(prev.facility_offset_, prev.facility_edges_,
                &FacilityEdge::client, edits.old_to_new_f, edits.old_to_new_c,
                static_cast<std::size_t>(edits.num_facilities), f_added,
                f_repriced, inst.facility_offset_, inst.facility_edges_,
                inst.max_facility_degree_);
    splice_side(prev.client_offset_, prev.client_edges_,
                &ClientEdge::facility, edits.old_to_new_c, edits.old_to_new_f,
                static_cast<std::size_t>(edits.num_clients), c_added,
                c_repriced, inst.client_offset_, inst.client_edges_,
                inst.max_client_degree_);
    for (std::size_t j = 0; j < static_cast<std::size_t>(edits.num_clients);
         ++j) {
      DFLP_CHECK_MSG(inst.client_offset_[j + 1] > inst.client_offset_[j],
                     "client " << j
                               << " has no candidate facility — instance "
                                  "would be infeasible");
    }
    inst.derive_profile();
    return inst;
  }
};

InstanceSnapshot InstanceSnapshot::initial(Instance inst) {
  InstanceSnapshot snap;
  snap.epoch_ = 0;
  snap.facility_keys_.resize(static_cast<std::size_t>(inst.num_facilities()));
  snap.client_keys_.resize(static_cast<std::size_t>(inst.num_clients()));
  for (std::size_t i = 0; i < snap.facility_keys_.size(); ++i)
    snap.facility_keys_[i] = static_cast<NodeKey>(i);
  for (std::size_t j = 0; j < snap.client_keys_.size(); ++j)
    snap.client_keys_[j] = static_cast<NodeKey>(j);
  snap.next_facility_key_ = static_cast<NodeKey>(snap.facility_keys_.size());
  snap.next_client_key_ = static_cast<NodeKey>(snap.client_keys_.size());
  snap.inst_ = std::move(inst);
  return snap;
}

InstanceSnapshot InstanceSnapshot::restore(Instance inst, EpochId epoch,
                                           std::vector<NodeKey> facility_keys,
                                           std::vector<NodeKey> client_keys,
                                           NodeKey next_facility_key,
                                           NodeKey next_client_key) {
  DFLP_CHECK_MSG(epoch >= 0, "epoch must be non-negative, got " << epoch);
  DFLP_CHECK_MSG(
      facility_keys.size() ==
          static_cast<std::size_t>(inst.num_facilities()),
      "facility key count " << facility_keys.size() << " != m="
                            << inst.num_facilities());
  DFLP_CHECK_MSG(client_keys.size() ==
                     static_cast<std::size_t>(inst.num_clients()),
                 "client key count " << client_keys.size()
                                     << " != n=" << inst.num_clients());
  check_keys_strictly_increasing(facility_keys, "facility");
  check_keys_strictly_increasing(client_keys, "client");
  DFLP_CHECK_MSG(facility_keys.empty() ||
                     next_facility_key > facility_keys.back(),
                 "next facility key " << next_facility_key
                                      << " not past max present key");
  DFLP_CHECK_MSG(client_keys.empty() || next_client_key > client_keys.back(),
                 "next client key " << next_client_key
                                    << " not past max present key");
  InstanceSnapshot snap;
  snap.inst_ = std::move(inst);
  snap.epoch_ = epoch;
  snap.facility_keys_ = std::move(facility_keys);
  snap.client_keys_ = std::move(client_keys);
  snap.next_facility_key_ = next_facility_key;
  snap.next_client_key_ = next_client_key;
  return snap;
}

NodeKey InstanceSnapshot::facility_key(FacilityId i) const {
  DFLP_CHECK(i >= 0 && i < inst_.num_facilities());
  return facility_keys_[static_cast<std::size_t>(i)];
}

NodeKey InstanceSnapshot::client_key(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < inst_.num_clients());
  return client_keys_[static_cast<std::size_t>(j)];
}

FacilityId InstanceSnapshot::facility_index(NodeKey key) const {
  return key_index(facility_keys_, key);
}

ClientId InstanceSnapshot::client_index(NodeKey key) const {
  return key_index(client_keys_, key);
}

InstanceSnapshot apply(const InstanceSnapshot& snap, const DeltaLog& log) {
  const Instance& inst = snap.instance();
  const auto old_m = static_cast<std::size_t>(inst.num_facilities());
  const auto old_n = static_cast<std::size_t>(inst.num_clients());

  // ---- Pass 1: classify deltas, validating sequential presence. ---------
  std::vector<bool> closed_old_f(old_m, false);
  std::vector<bool> departed_old_c(old_n, false);
  // Arrivals that survive the log, in log order (an arrive+depart pair
  // inside one log cancels; the key stays burned).
  std::vector<const Delta*> new_facilities;
  std::vector<const Delta*> new_clients;
  std::unordered_map<NodeKey, std::size_t> new_f_pos;
  std::unordered_map<NodeKey, std::size_t> new_c_pos;
  // Final-topology re-pricing, last-writer-wins; value.second marks
  // consumption during edge assembly.
  std::unordered_map<std::pair<NodeKey, NodeKey>, std::pair<Cost, bool>,
                     EdgeKeyHash>
      cost_change;
  NodeKey next_f = snap.next_facility_key();
  NodeKey next_c = snap.next_client_key();
  std::size_t extra_edges = 0;

  for (const Delta& d : log.deltas()) {
    switch (d.kind) {
      case Delta::Kind::kClientArrive: {
        DFLP_CHECK_MSG(d.client >= next_c,
                       "client arrival key " << d.client
                                             << " not fresh (next is "
                                             << next_c << ")");
        DFLP_CHECK_MSG(d.client < std::numeric_limits<NodeKey>::max(),
                       "client arrival key " << d.client
                                             << " leaves no next key");
        DFLP_CHECK_MSG(!d.edges.empty(),
                       "client arrival " << d.client
                                         << " must carry at least one edge");
        next_c = d.client + 1;
        new_c_pos.emplace(d.client, new_clients.size());
        new_clients.push_back(&d);
        extra_edges += d.edges.size();
        break;
      }
      case Delta::Kind::kClientDepart: {
        if (const auto it = new_c_pos.find(d.client); it != new_c_pos.end()) {
          new_clients[it->second] = nullptr;  // arrived and left in one log
          new_c_pos.erase(it);
          break;
        }
        const ClientId j = snap.client_index(d.client);
        DFLP_CHECK_MSG(j >= 0 && !departed_old_c[static_cast<std::size_t>(j)],
                       "client departure for absent key " << d.client);
        departed_old_c[static_cast<std::size_t>(j)] = true;
        break;
      }
      case Delta::Kind::kFacilityOpen: {
        DFLP_CHECK_MSG(d.facility >= next_f,
                       "facility open key " << d.facility
                                            << " not fresh (next is "
                                            << next_f << ")");
        DFLP_CHECK_MSG(d.facility < std::numeric_limits<NodeKey>::max(),
                       "facility open key " << d.facility
                                            << " leaves no next key");
        next_f = d.facility + 1;
        new_f_pos.emplace(d.facility, new_facilities.size());
        new_facilities.push_back(&d);
        extra_edges += d.edges.size();
        break;
      }
      case Delta::Kind::kFacilityClose: {
        if (const auto it = new_f_pos.find(d.facility);
            it != new_f_pos.end()) {
          new_facilities[it->second] = nullptr;
          new_f_pos.erase(it);
          break;
        }
        const FacilityId i = snap.facility_index(d.facility);
        DFLP_CHECK_MSG(i >= 0 && !closed_old_f[static_cast<std::size_t>(i)],
                       "facility close for absent key " << d.facility);
        closed_old_f[static_cast<std::size_t>(i)] = true;
        break;
      }
      case Delta::Kind::kEdgeCostChange: {
        cost_change[{d.facility, d.client}] = {d.cost, false};
        break;
      }
    }
  }

  // ---- Final node sets: survivors in order, then arrivals in order. -----
  InstanceSplice::Edits edits;
  edits.old_to_new_f.assign(old_m, -1);
  edits.old_to_new_c.assign(old_n, -1);
  std::vector<NodeKey> fkeys;
  std::vector<NodeKey> ckeys;
  fkeys.reserve(old_m + new_facilities.size());
  ckeys.reserve(old_n + new_clients.size());
  for (std::size_t i = 0; i < old_m; ++i) {
    if (closed_old_f[i]) continue;
    edits.old_to_new_f[i] = static_cast<std::int32_t>(fkeys.size());
    fkeys.push_back(snap.facility_key(static_cast<FacilityId>(i)));
  }
  for (const Delta* d : new_facilities) {
    if (d == nullptr) continue;
    fkeys.push_back(d->facility);
    // The check InstanceBuilder::add_facility makes, in the same order.
    DFLP_CHECK_MSG(std::isfinite(d->cost) && d->cost >= 0.0,
                   "opening cost must be finite and non-negative, got "
                       << d->cost);
    edits.opened.push_back(d->cost);
  }
  for (std::size_t j = 0; j < old_n; ++j) {
    if (departed_old_c[j]) continue;
    edits.old_to_new_c[j] = static_cast<std::int32_t>(ckeys.size());
    ckeys.push_back(snap.client_key(static_cast<ClientId>(j)));
  }
  for (const Delta* d : new_clients) {
    if (d == nullptr) continue;
    ckeys.push_back(d->client);
  }
  edits.num_facilities = static_cast<std::int32_t>(fkeys.size());
  edits.num_clients = static_cast<std::int32_t>(ckeys.size());

  // ---- Re-pricing, applied to the final topology. -----------------------
  // Costs are checked in the order a replay through InstanceBuilder would
  // meet them: surviving edges in facility-CSR order, then arrival edges,
  // then opened-facility edges, each in log order.
  {
    struct Repriced {
      InstanceSplice::Edge edge;
      Cost old_cost;
    };
    std::vector<Repriced> repriced;
    for (auto& [edge, entry] : cost_change) {
      const FacilityId i = snap.facility_index(edge.first);
      const ClientId j = snap.client_index(edge.second);
      if (i < 0 || j < 0) continue;
      const std::int32_t ni = edits.old_to_new_f[static_cast<std::size_t>(i)];
      const std::int32_t nj = edits.old_to_new_c[static_cast<std::size_t>(j)];
      if (ni < 0 || nj < 0) continue;
      for (const ClientEdge& e : inst.client_edges(j)) {
        if (e.facility != i) continue;
        entry.second = true;
        repriced.push_back({{ni, nj, entry.first}, e.cost});
        break;
      }
    }
    std::sort(repriced.begin(), repriced.end(),
              [](const Repriced& a, const Repriced& b) {
                if (a.edge.i != b.edge.i) return a.edge.i < b.edge.i;
                if (a.old_cost != b.old_cost) return a.old_cost < b.old_cost;
                return a.edge.j < b.edge.j;
              });
    for (const Repriced& r : repriced) {
      check_connection_cost(r.edge.c);
      edits.repriced.push_back(r.edge);
    }
  }
  auto priced = [&cost_change](NodeKey fkey, NodeKey ckey, Cost base) {
    const auto it = cost_change.find({fkey, ckey});
    if (it == cost_change.end()) return base;
    it->second.second = true;
    return it->second.first;
  };

  // ---- Added edges: each has an endpoint that arrived in this log. ------
  edits.added.reserve(extra_edges);
  for (const Delta* d : new_clients) {
    if (d == nullptr) continue;
    const std::int32_t cj = key_index(ckeys, d->client);
    for (const KeyedEdge& e : d->edges) {
      const std::int32_t fi = key_index(fkeys, e.peer);
      DFLP_CHECK_MSG(fi >= 0, "client arrival " << d->client
                                                << " references facility key "
                                                << e.peer
                                                << " absent from the epoch");
      const Cost cost = priced(e.peer, d->client, e.cost);
      check_connection_cost(cost);
      edits.added.push_back({fi, cj, cost});
    }
  }
  for (const Delta* d : new_facilities) {
    if (d == nullptr) continue;
    const std::int32_t fi = key_index(fkeys, d->facility);
    for (const KeyedEdge& e : d->edges) {
      const std::int32_t cj = key_index(ckeys, e.peer);
      DFLP_CHECK_MSG(cj >= 0, "facility open " << d->facility
                                               << " references client key "
                                               << e.peer
                                               << " absent from the epoch");
      const Cost cost = priced(d->facility, e.peer, e.cost);
      check_connection_cost(cost);
      edits.added.push_back({fi, cj, cost});
    }
  }
  for (const auto& [edge, entry] : cost_change) {
    DFLP_CHECK_MSG(entry.second, "edge-cost change for (facility key "
                                     << edge.first << ", client key "
                                     << edge.second
                                     << ") matches no edge in the epoch");
  }

  // The splice re-checks global invariants: duplicate edges and clients
  // left without any candidate facility (e.g. orphaned by a facility
  // close) fail loudly there.
  return InstanceSnapshot::restore(InstanceSplice::splice(inst, edits),
                                   snap.epoch() + 1, std::move(fkeys),
                                   std::move(ckeys), next_f, next_c);
}

}  // namespace dflp::fl
