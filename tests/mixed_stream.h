// Test helper: seeded delta batches that mix all five delta kinds over a
// live snapshot. `workload::ClientStream` only emits arrivals and
// departures; this generator also opens facilities (whose edges usually
// bridge components), closes facilities, and re-prices edges, so the
// streaming service's re-partition sees merges and splits.
//
// It mirrors the live topology in key space and emits only deltas that
// `fl::apply` accepts: a node that an edge of the batch names is pinned
// until the batch ends (apply checks edges against the batch's final
// topology), and a close never orphans a client.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "fl/delta.h"

namespace dflp::fl {

class MixedStream {
 public:
  /// Cost ranges of the emitted deltas; bounds for a service fed by this
  /// stream take min_positive_cost = kConnectionLo, max_cost = kOpeningHi.
  static constexpr Cost kOpeningLo = 20.0;
  static constexpr Cost kOpeningHi = 200.0;
  static constexpr Cost kConnectionLo = 1.0;
  static constexpr Cost kConnectionHi = 20.0;

  MixedStream(const InstanceSnapshot& snap, std::uint64_t seed)
      : rng_(seed),
        next_f_(snap.next_facility_key()),
        next_c_(snap.next_client_key()) {
    const Instance& inst = snap.instance();
    for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
      auto& row = fac_[snap.facility_key(i)];
      for (const FacilityEdge& e : inst.facility_edges(i)) {
        row[snap.client_key(e.client)] = e.cost;
        cli_[snap.client_key(e.client)][snap.facility_key(i)] = e.cost;
      }
    }
  }

  /// Appends `count` deltas to `log`.
  void fill_epoch(int count, DeltaLog& log) {
    std::set<NodeKey> pinned_f;
    std::set<NodeKey> pinned_c;
    for (int emitted = 0; emitted < count;) {
      const std::uint64_t dice = rng_.uniform_u64(100);
      bool ok = false;
      if (dice < 30) {
        ok = arrive(log, pinned_f);
      } else if (dice < 50) {
        ok = depart(log, pinned_c);
      } else if (dice < 65) {
        ok = open(log, pinned_c);
      } else if (dice < 80) {
        ok = close(log, pinned_f);
      } else {
        ok = reprice(log, pinned_f, pinned_c);
      }
      if (ok) ++emitted;
    }
  }

 private:
  using Row = std::map<NodeKey, Cost>;

  template <typename Map>
  NodeKey pick(const Map& nodes) {
    auto it = nodes.begin();
    std::advance(it, static_cast<long>(rng_.uniform_u64(nodes.size())));
    return it->first;
  }

  void link(NodeKey f, NodeKey c, Cost cost) {
    fac_[f][c] = cost;
    cli_[c][f] = cost;
  }

  Cost connection_cost() {
    return rng_.uniform_real(kConnectionLo, kConnectionHi);
  }

  /// A new client: one random facility, and often a second one, either a
  /// facility that already shares a client with the first or any facility.
  bool arrive(DeltaLog& log, std::set<NodeKey>& pinned_f) {
    if (fac_.empty()) return false;
    const NodeKey f = pick(fac_);
    std::vector<NodeKey> peers{f};
    if (rng_.bernoulli(0.5)) {
      NodeKey g = pick(fac_);
      const Row& row = fac_.at(f);
      if (!row.empty() && rng_.bernoulli(0.75)) g = pick(cli_.at(pick(row)));
      if (g != f) peers.push_back(g);
    }
    const NodeKey c = next_c_++;
    std::vector<KeyedEdge> edges;
    for (NodeKey p : peers) {
      edges.push_back({p, connection_cost()});
      link(p, c, edges.back().cost);
      pinned_f.insert(p);
    }
    log.append(Delta::client_arrive(c, std::move(edges)));
    return true;
  }

  bool depart(DeltaLog& log, const std::set<NodeKey>& pinned_c) {
    if (cli_.size() <= 2) return false;
    const NodeKey c = pick(cli_);
    if (pinned_c.count(c) != 0) return false;
    for (const auto& [f, cost] : cli_.at(c)) fac_.at(f).erase(c);
    cli_.erase(c);
    log.append(Delta::client_depart(c));
    return true;
  }

  /// A new facility with edges to one to three random clients; clients
  /// drawn independently usually sit in different components.
  bool open(DeltaLog& log, std::set<NodeKey>& pinned_c) {
    const NodeKey f = next_f_++;
    fac_.emplace(f, Row{});  // no clients yet
    const int degree = 1 + static_cast<int>(rng_.uniform_u64(3));
    std::vector<KeyedEdge> edges;
    for (int t = 0; t < degree; ++t) {
      const NodeKey c = pick(cli_);
      if (cli_.at(c).count(f) != 0) continue;
      edges.push_back({c, connection_cost()});
      link(f, c, edges.back().cost);
      pinned_c.insert(c);
    }
    log.append(Delta::facility_open(
        f, rng_.uniform_real(kOpeningLo, kOpeningHi), std::move(edges)));
    return true;
  }

  bool close(DeltaLog& log, const std::set<NodeKey>& pinned_f) {
    if (fac_.size() <= 2) return false;
    const NodeKey f = pick(fac_);
    if (pinned_f.count(f) != 0) return false;
    for (const auto& [c, cost] : fac_.at(f))
      if (cli_.at(c).size() < 2) return false;  // would orphan c
    for (const auto& [c, cost] : fac_.at(f)) cli_.at(c).erase(f);
    fac_.erase(f);
    log.append(Delta::facility_close(f));
    return true;
  }

  bool reprice(DeltaLog& log, std::set<NodeKey>& pinned_f,
               std::set<NodeKey>& pinned_c) {
    const NodeKey c = pick(cli_);
    const NodeKey f = pick(cli_.at(c));
    const Cost cost = connection_cost();
    link(f, c, cost);
    pinned_f.insert(f);
    pinned_c.insert(c);
    log.append(Delta::edge_cost_change(f, c, cost));
    return true;
  }

  Rng rng_;
  NodeKey next_f_;
  NodeKey next_c_;
  std::map<NodeKey, Row> fac_;  // facility key -> client key -> cost
  std::map<NodeKey, Row> cli_;  // client key -> facility key -> cost
};

}  // namespace dflp::fl
