#include "fl/delta.h"

#include <algorithm>
#include <limits>
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

std::string delta_kind_name(Delta::Kind kind) {
  switch (kind) {
    case Delta::Kind::kClientArrive:
      return "client-arrive";
    case Delta::Kind::kClientDepart:
      return "client-depart";
    case Delta::Kind::kFacilityOpen:
      return "facility-open";
    case Delta::Kind::kFacilityClose:
      return "facility-close";
    case Delta::Kind::kEdgeCostChange:
      return "edge-cost-change";
  }
  return "unknown";
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

}  // namespace

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
  std::vector<NodeKey> fkeys;
  std::vector<NodeKey> ckeys;
  fkeys.reserve(old_m + new_facilities.size());
  ckeys.reserve(old_n + new_clients.size());
  std::vector<std::int32_t> old_to_new_f(old_m, -1);
  std::vector<std::int32_t> old_to_new_c(old_n, -1);

  InstanceBuilder builder;
  std::size_t surviving_edges = 0;
  for (std::size_t i = 0; i < old_m; ++i) {
    if (closed_old_f[i]) continue;
    old_to_new_f[i] = static_cast<std::int32_t>(fkeys.size());
    fkeys.push_back(snap.facility_key(static_cast<FacilityId>(i)));
  }
  for (const Delta* d : new_facilities) {
    if (d == nullptr) continue;
    fkeys.push_back(d->facility);
  }
  for (std::size_t j = 0; j < old_n; ++j) {
    if (departed_old_c[j]) continue;
    old_to_new_c[j] = static_cast<std::int32_t>(ckeys.size());
    ckeys.push_back(snap.client_key(static_cast<ClientId>(j)));
    surviving_edges += inst.client_edges(static_cast<ClientId>(j)).size();
  }
  for (const Delta* d : new_clients) {
    if (d == nullptr) continue;
    ckeys.push_back(d->client);
  }

  builder.reserve(static_cast<std::int32_t>(fkeys.size()),
                  static_cast<std::int32_t>(ckeys.size()),
                  surviving_edges + extra_edges);
  for (std::size_t i = 0; i < old_m; ++i) {
    if (!closed_old_f[i])
      (void)builder.add_facility(
          inst.opening_cost(static_cast<FacilityId>(i)));
  }
  for (const Delta* d : new_facilities) {
    if (d != nullptr) (void)builder.add_facility(d->cost);
  }
  for (std::size_t j = 0; j < ckeys.size(); ++j) (void)builder.add_client();

  // ---- Edge assembly (re-pricing applied to the final topology). --------
  auto priced = [&cost_change](NodeKey fkey, NodeKey ckey, Cost base) {
    const auto it = cost_change.find({fkey, ckey});
    if (it == cost_change.end()) return base;
    it->second.second = true;
    return it->second.first;
  };

  for (std::size_t i = 0; i < old_m; ++i) {
    if (closed_old_f[i]) continue;
    const NodeKey fkey = snap.facility_key(static_cast<FacilityId>(i));
    for (const FacilityEdge& e : inst.facility_edges(
             static_cast<FacilityId>(i))) {
      const auto j = static_cast<std::size_t>(e.client);
      if (departed_old_c[j]) continue;
      builder.connect(old_to_new_f[i], old_to_new_c[j],
                      priced(fkey, snap.client_key(e.client), e.cost));
    }
  }
  for (const Delta* d : new_clients) {
    if (d == nullptr) continue;
    const std::int32_t cj = key_index(ckeys, d->client);
    for (const KeyedEdge& e : d->edges) {
      const std::int32_t fi = key_index(fkeys, e.peer);
      DFLP_CHECK_MSG(fi >= 0, "client arrival " << d->client
                                                << " references facility key "
                                                << e.peer
                                                << " absent from the epoch");
      builder.connect(fi, cj, priced(e.peer, d->client, e.cost));
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
      builder.connect(fi, cj, priced(d->facility, e.peer, e.cost));
    }
  }
  for (const auto& [edge, entry] : cost_change) {
    DFLP_CHECK_MSG(entry.second, "edge-cost change for (facility key "
                                     << edge.first << ", client key "
                                     << edge.second
                                     << ") matches no edge in the epoch");
  }

  // build() re-checks global invariants: duplicate edges and clients left
  // without any candidate facility (e.g. orphaned by a facility close)
  // fail loudly here.
  return InstanceSnapshot::restore(builder.build(), snap.epoch() + 1,
                                   std::move(fkeys), std::move(ckeys), next_f,
                                   next_c);
}

}  // namespace dflp::fl
