#include "fl/delta.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"

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

namespace {

/// The check InstanceBuilder::connect makes, with its message.
void check_connection_cost(Cost cost) {
  DFLP_CHECK_MSG(std::isfinite(cost) && cost >= 0.0,
                 "connection cost must be finite and non-negative, got "
                     << cost);
}

/// One arrival's edge on one CSR side: `peer` joins row `row`.
struct RowEdit {
  std::int32_t row;
  std::int32_t peer;
  Cost cost;
};

bool by_row_then_peer(const RowEdit& a, const RowEdit& b) {
  return a.row != b.row ? a.row < b.row : a.peer < b.peer;
}

/// Splices one side of the CSR (facility rows or client rows). The rows
/// `row_survives` keeps are copied in order, with every peer mapped
/// through `peer_to_new` and the departed ones (-1) dropped; renumbering
/// is monotone, so each copy stays in (cost, peer) order. The arrivals'
/// rows follow. A row that gains an added edge is sorted again. `added`
/// is sorted by (row, peer).
template <typename RowEdge, typename RowSurvives, typename PeerToNew>
void splice_side(const std::vector<std::int32_t>& prev_offset,
                 const std::vector<RowEdge>& prev_edges,
                 std::int32_t RowEdge::*peer, RowSurvives row_survives,
                 PeerToNew peer_to_new, std::size_t rows,
                 std::span<const RowEdit> added,
                 std::vector<std::int32_t>& offset,
                 std::vector<RowEdge>& edges, int& max_degree) {
  offset.assign(rows + 1, 0);
  edges.clear();
  edges.reserve(prev_edges.size() + added.size());
  std::size_t row = 0;
  std::size_t a = 0;
  const auto finish_row = [&](std::size_t begin) {
    const auto id = static_cast<std::int32_t>(row);
    bool resort = false;
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
  for (std::size_t old = 0; old + 1 < prev_offset.size(); ++old) {
    if (!row_survives(old)) continue;
    const std::size_t begin = edges.size();
    for (auto k = static_cast<std::size_t>(prev_offset[old]);
         k < static_cast<std::size_t>(prev_offset[old + 1]); ++k) {
      const std::int32_t p = peer_to_new(prev_edges[k].*peer);
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
  /// What apply() hands the splice. Every facility survives with its id.
  struct Edits {
    std::vector<std::int32_t> old_to_new_c;  ///< -1: departed
    std::int32_t num_clients = 0;
    std::vector<RowEdit> added;  ///< arrivals' edges: row = facility
  };

  static Instance splice(const Instance& prev, Edits& edits) {
    DFLP_CHECK_MSG(prev.num_facilities() > 0, "instance has no facilities");
    DFLP_CHECK_MSG(edits.num_clients > 0, "instance has no clients");

    std::vector<RowEdit>& f_added = edits.added;
    std::vector<RowEdit> c_added;
    c_added.reserve(f_added.size());
    for (const RowEdit& e : f_added) c_added.push_back({e.peer, e.row, e.cost});
    std::sort(f_added.begin(), f_added.end(), by_row_then_peer);
    std::sort(c_added.begin(), c_added.end(), by_row_then_peer);

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
    inst.opening_ = prev.opening_;
    inst.num_clients_ = edits.num_clients;

    const std::vector<std::int32_t>& old_to_new_c = edits.old_to_new_c;
    const auto client_to_new = [&old_to_new_c](ClientId j) {
      return old_to_new_c[static_cast<std::size_t>(j)];
    };
    splice_side(prev.facility_offset_, prev.facility_edges_,
                &FacilityEdge::client, [](std::size_t) { return true; },
                client_to_new, prev.opening_.size(), f_added,
                inst.facility_offset_, inst.facility_edges_,
                inst.max_facility_degree_);
    splice_side(prev.client_offset_, prev.client_edges_,
                &ClientEdge::facility,
                [&old_to_new_c](std::size_t j) { return old_to_new_c[j] >= 0; },
                [](FacilityId i) { return i; },
                static_cast<std::size_t>(edits.num_clients), c_added,
                inst.client_offset_, inst.client_edges_,
                inst.max_client_degree_);
    inst.derive_profile();
    return inst;
  }
};

InstanceSnapshot InstanceSnapshot::initial(Instance inst) {
  InstanceSnapshot snap;
  snap.client_keys_.resize(static_cast<std::size_t>(inst.num_clients()));
  std::iota(snap.client_keys_.begin(), snap.client_keys_.end(), NodeKey{0});
  snap.next_client_key_ = static_cast<NodeKey>(snap.client_keys_.size());
  snap.inst_ = std::move(inst);
  return snap;
}

InstanceSnapshot InstanceSnapshot::restore(Instance inst, EpochId epoch,
                                           std::vector<NodeKey> client_keys,
                                           NodeKey next_client_key) {
  DFLP_CHECK_MSG(epoch >= 0, "epoch must be non-negative, got " << epoch);
  DFLP_CHECK_MSG(client_keys.size() ==
                     static_cast<std::size_t>(inst.num_clients()),
                 "client key count " << client_keys.size()
                                     << " != n=" << inst.num_clients());
  for (std::size_t t = 1; t < client_keys.size(); ++t)
    DFLP_CHECK_MSG(client_keys[t - 1] < client_keys[t],
                   "client keys must be strictly increasing, got "
                       << client_keys[t - 1] << " before " << client_keys[t]);
  DFLP_CHECK_MSG(client_keys.empty() || next_client_key > client_keys.back(),
                 "next client key " << next_client_key
                                    << " not past max present key");
  InstanceSnapshot snap;
  snap.inst_ = std::move(inst);
  snap.epoch_ = epoch;
  snap.client_keys_ = std::move(client_keys);
  snap.next_client_key_ = next_client_key;
  return snap;
}

NodeKey InstanceSnapshot::client_key(ClientId j) const {
  DFLP_CHECK(j >= 0 && j < inst_.num_clients());
  return client_keys_[static_cast<std::size_t>(j)];
}

ClientId InstanceSnapshot::client_index(NodeKey key) const {
  const auto it =
      std::lower_bound(client_keys_.begin(), client_keys_.end(), key);
  if (it == client_keys_.end() || *it != key) return -1;
  return static_cast<ClientId>(it - client_keys_.begin());
}

InstanceSnapshot apply(const InstanceSnapshot& snap, const DeltaLog& log) {
  const Instance& inst = snap.instance();
  const auto old_n = static_cast<std::size_t>(inst.num_clients());

  // ---- Pass 1: classify deltas, validating sequential presence. ---------
  std::vector<bool> departed_old_c(old_n, false);
  // Arrivals that survive the log, in log order (an arrive+depart pair
  // inside one log cancels; the key stays burned).
  std::vector<const Delta*> new_clients;
  std::unordered_map<NodeKey, std::size_t> new_c_pos;
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
    }
  }

  // ---- Final client set: survivors in order, then arrivals in order. ----
  InstanceSplice::Edits edits;
  edits.old_to_new_c.assign(old_n, -1);
  std::vector<NodeKey> ckeys;
  ckeys.reserve(old_n + new_clients.size());
  for (std::size_t j = 0; j < old_n; ++j) {
    if (departed_old_c[j]) continue;
    edits.old_to_new_c[j] = static_cast<std::int32_t>(ckeys.size());
    ckeys.push_back(snap.client_key(static_cast<ClientId>(j)));
  }

  // ---- Added edges: the arrivals', in log order. -------------------------
  edits.added.reserve(extra_edges);
  for (const Delta* d : new_clients) {
    if (d == nullptr) continue;
    const auto cj = static_cast<ClientId>(ckeys.size());
    ckeys.push_back(d->client);
    for (const KeyedEdge& e : d->edges) {
      DFLP_CHECK_MSG(e.peer >= 0 && e.peer < inst.num_facilities(),
                     "client arrival " << d->client
                                       << " references facility key "
                                       << e.peer << " absent from the epoch");
      check_connection_cost(e.cost);
      edits.added.push_back({e.peer, cj, e.cost});
    }
  }
  edits.num_clients = static_cast<std::int32_t>(ckeys.size());

  // The splice checks what needs the whole final topology: a duplicate
  // edge, and a log that leaves no client. A surviving client keeps every
  // edge and an arrival carries one, so every client keeps a facility.
  return InstanceSnapshot::restore(InstanceSplice::splice(inst, edits),
                                   snap.epoch() + 1, std::move(ckeys),
                                   next_c);
}

}  // namespace dflp::fl
