// Test helper: seeded client arrivals and departures over a live snapshot
// whose components merge and split. `workload::ClientStream` keeps every
// client inside one cell, so its components never merge; this generator
// often connects an arrival to two facilities of different components
// (the only way components merge) and departs random clients (the only way
// they split), so the streaming service's re-partition sees both.
//
// It mirrors the live topology in key space and emits only deltas that
// `fl::apply` accepts: fresh arrival keys, departures of present clients.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"
#include "fl/delta.h"

namespace dflp::fl {

class MixedStream {
 public:
  /// Cost range of the arrivals' edges: workload::StreamParams' default
  /// connection range, so `service::stream_bounds` covers this stream too.
  static constexpr Cost kConnectionLo = 1.0;
  static constexpr Cost kConnectionHi = 20.0;

  MixedStream(const InstanceSnapshot& snap, std::uint64_t seed)
      : rng_(seed), next_c_(snap.next_client_key()) {
    const Instance& inst = snap.instance();
    fac_.resize(static_cast<std::size_t>(inst.num_facilities()));
    for (FacilityId i = 0; i < inst.num_facilities(); ++i) {
      for (const FacilityEdge& e : inst.facility_edges(i)) {
        const NodeKey c = snap.client_key(e.client);
        fac_[static_cast<std::size_t>(i)][c] = e.cost;
        cli_[c][i] = e.cost;
      }
    }
  }

  /// Appends `count` deltas to `log`: about 60% arrivals, the rest
  /// departures.
  void fill_epoch(int count, DeltaLog& log) {
    for (int emitted = 0; emitted < count;) {
      const bool ok = rng_.uniform_u64(100) < 60 ? arrive(log) : depart(log);
      if (ok) ++emitted;
    }
  }

 private:
  template <typename Map>
  auto pick(const Map& nodes) {
    auto it = nodes.begin();
    std::advance(it, static_cast<long>(rng_.uniform_u64(nodes.size())));
    return it->first;
  }

  FacilityId pick_facility() {
    return static_cast<FacilityId>(rng_.uniform_u64(fac_.size()));
  }

  /// A new client: one random facility, and often a second one, either a
  /// facility that already shares a client with the first or any facility
  /// (which usually sits in another component).
  bool arrive(DeltaLog& log) {
    const FacilityId f = pick_facility();
    std::vector<FacilityId> peers{f};
    if (rng_.bernoulli(0.5)) {
      FacilityId g = pick_facility();
      const auto& row = fac_[static_cast<std::size_t>(f)];
      if (!row.empty() && rng_.bernoulli(0.75)) g = pick(cli_.at(pick(row)));
      if (g != f) peers.push_back(g);
    }
    const NodeKey c = next_c_++;
    std::vector<KeyedEdge> edges;
    for (FacilityId p : peers) {
      edges.push_back({p, rng_.uniform_real(kConnectionLo, kConnectionHi)});
      fac_[static_cast<std::size_t>(p)][c] = edges.back().cost;
      cli_[c][p] = edges.back().cost;
    }
    log.append(Delta::client_arrive(c, std::move(edges)));
    return true;
  }

  bool depart(DeltaLog& log) {
    if (cli_.size() <= 2) return false;
    const NodeKey c = pick(cli_);
    for (const auto& [f, cost] : cli_.at(c))
      fac_[static_cast<std::size_t>(f)].erase(c);
    cli_.erase(c);
    log.append(Delta::client_depart(c));
    return true;
  }

  Rng rng_;
  NodeKey next_c_;
  // facility -> client key -> cost, and client key -> facility -> cost
  std::vector<std::map<NodeKey, Cost>> fac_;
  std::map<NodeKey, std::map<FacilityId, Cost>> cli_;
};

}  // namespace dflp::fl
