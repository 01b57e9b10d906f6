// Tests for the snapshot + delta-log layer: apply() must equal building
// the mutated instance from scratch in canonical (ascending-key) order,
// and snapshots/logs must round-trip through the text format.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fl/delta.h"
#include "fl/instance.h"
#include "fl/serialize.h"
#include "respell.h"

namespace dflp::fl {
namespace {

Instance tiny() {
  InstanceBuilder b;
  const FacilityId f0 = b.add_facility(10.0);
  const FacilityId f1 = b.add_facility(5.0);
  const ClientId c0 = b.add_client();
  const ClientId c1 = b.add_client();
  const ClientId c2 = b.add_client();
  b.connect(f0, c0, 1.0);
  b.connect(f0, c1, 2.0);
  b.connect(f1, c1, 4.0);
  b.connect(f1, c2, 1.0);
  return b.build();
}

/// Structural equality down to the CSR arrays and cost profile.
void expect_same_instance(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_facilities(), b.num_facilities());
  ASSERT_EQ(a.num_clients(), b.num_clients());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (FacilityId i = 0; i < a.num_facilities(); ++i) {
    EXPECT_EQ(a.opening_cost(i), b.opening_cost(i)) << "facility " << i;
    const auto ea = a.facility_edges(i);
    const auto eb = b.facility_edges(i);
    ASSERT_EQ(ea.size(), eb.size()) << "facility " << i;
    for (std::size_t t = 0; t < ea.size(); ++t) {
      EXPECT_EQ(ea[t].client, eb[t].client);
      EXPECT_EQ(ea[t].cost, eb[t].cost);
    }
  }
  for (ClientId j = 0; j < a.num_clients(); ++j) {
    ASSERT_EQ(a.client_edge_offset(j), b.client_edge_offset(j));
    const auto ea = a.client_edges(j);
    const auto eb = b.client_edges(j);
    ASSERT_EQ(ea.size(), eb.size()) << "client " << j;
    for (std::size_t t = 0; t < ea.size(); ++t) {
      EXPECT_EQ(ea[t].facility, eb[t].facility);
      EXPECT_EQ(ea[t].cost, eb[t].cost);
    }
  }
  EXPECT_EQ(a.max_facility_degree(), b.max_facility_degree());
  EXPECT_EQ(a.max_client_degree(), b.max_client_degree());
  EXPECT_EQ(a.cost_profile().rho, b.cost_profile().rho);
  EXPECT_EQ(a.cost_profile().min_positive, b.cost_profile().min_positive);
  EXPECT_EQ(a.cost_profile().max_value, b.cost_profile().max_value);
  EXPECT_EQ(a.cost_profile().total_opening, b.cost_profile().total_opening);
  EXPECT_EQ(a.cost_profile().total_connection,
            b.cost_profile().total_connection);
}

TEST(InstanceBuilder, ReserveIsTransparent) {
  InstanceBuilder plain;
  InstanceBuilder hinted;
  hinted.reserve(2, 3, 4);
  for (InstanceBuilder* b : {&plain, &hinted}) {
    const FacilityId f0 = b->add_facility(10.0);
    const FacilityId f1 = b->add_facility(5.0);
    const ClientId c0 = b->add_client();
    const ClientId c1 = b->add_client();
    (void)b->add_client();
    b->connect(f0, c0, 1.0);
    b->connect(f0, c1, 2.0);
    b->connect(f1, c1, 4.0);
    b->connect(f1, 2, 1.0);
  }
  expect_same_instance(plain.build(), hinted.build());
}

TEST(InstanceSnapshot, InitialAssignsDenseKeys) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  EXPECT_EQ(snap.epoch(), 0);
  EXPECT_EQ(snap.facility_key(1), 1);
  EXPECT_EQ(snap.client_key(2), 2);
  EXPECT_EQ(snap.facility_index(0), 0);
  EXPECT_EQ(snap.client_index(2), 2);
  EXPECT_EQ(snap.facility_index(99), -1);
  EXPECT_EQ(snap.next_facility_key(), 2);
  EXPECT_EQ(snap.next_client_key(), 3);
}

TEST(DeltaLog, ApplyAllKindsMatchesScratchBuild) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  DeltaLog log;
  log.append(Delta::client_arrive(3, {{0, 7.0}, {1, 3.0}}));
  log.append(Delta::facility_open(2, 20.0, {{2, 0.5}, {3, 6.0}}));
  log.append(Delta::client_depart(1));
  log.append(Delta::edge_cost_change(1, 2, 9.0));

  const InstanceSnapshot next = apply(snap, log);
  EXPECT_EQ(next.epoch(), 1);
  EXPECT_EQ(next.next_facility_key(), 3);
  EXPECT_EQ(next.next_client_key(), 4);

  // Scratch build in canonical order: survivors (ascending key), then
  // arrivals (log order). Final clients: keys 0, 2, 3; facilities 0, 1, 2.
  InstanceBuilder b;
  (void)b.add_facility(10.0);  // key 0
  (void)b.add_facility(5.0);   // key 1
  (void)b.add_facility(20.0);  // key 2 (opened)
  (void)b.add_client();        // key 0 -> dense 0
  (void)b.add_client();        // key 2 -> dense 1
  (void)b.add_client();        // key 3 -> dense 2 (arrived)
  b.connect(0, 0, 1.0);        // survivor edge
  b.connect(1, 1, 9.0);        // survivor edge, repriced (was 1.0)
  b.connect(0, 2, 7.0);        // arrival edges
  b.connect(1, 2, 3.0);
  b.connect(2, 1, 0.5);        // opened-facility edges
  b.connect(2, 2, 6.0);
  expect_same_instance(next.instance(), b.build());

  EXPECT_EQ(next.facility_key(2), 2);
  EXPECT_EQ(next.client_key(1), 2);
  EXPECT_EQ(next.client_index(1), -1);  // departed key
}

TEST(DeltaLog, ArriveAndDepartInOneLogCancels) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  DeltaLog log;
  log.append(Delta::client_arrive(3, {{0, 7.0}}));
  log.append(Delta::client_depart(3));
  const InstanceSnapshot next = apply(snap, log);
  expect_same_instance(next.instance(), tiny());
  EXPECT_EQ(next.next_client_key(), 4);  // the key stays burned
}

TEST(DeltaLog, RejectsInconsistentDeltas) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  {
    DeltaLog log;  // stale arrival key
    log.append(Delta::client_arrive(1, {{0, 1.0}}));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  {
    DeltaLog log;  // unknown departure
    log.append(Delta::client_depart(77));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  {
    DeltaLog log;  // closing facility 1 orphans client 2
    log.append(Delta::facility_close(1));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  {
    DeltaLog log;  // repricing a non-edge
    log.append(Delta::edge_cost_change(1, 0, 2.0));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  {
    DeltaLog log;  // arrival referencing an absent facility
    log.append(Delta::client_arrive(3, {{9, 1.0}}));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  {
    DeltaLog log;  // arrivals must carry an edge
    log.append(Delta::client_arrive(3, {}));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
  for (const bool facility : {false, true}) {
    DeltaLog log;  // the largest key would leave no next key
    const NodeKey last = std::numeric_limits<NodeKey>::max();
    log.append(facility ? Delta::facility_open(last, 1.0, {{0, 1.0}})
                        : Delta::client_arrive(last, {{0, 1.0}}));
    EXPECT_THROW((void)apply(snap, log), CheckError);
  }
}

// ---- Randomized property: apply() == scratch build, over many epochs ----

struct Model {
  // Ascending-key maps mirror the canonical snapshot ordering.
  std::map<NodeKey, Cost> facilities;
  std::map<NodeKey, bool> clients;
  std::map<std::pair<NodeKey, NodeKey>, Cost> edges;  // (fkey, ckey)
  NodeKey next_f = 0;
  NodeKey next_c = 0;

  [[nodiscard]] Instance build() const {
    InstanceBuilder b;
    std::map<NodeKey, FacilityId> fid;
    std::map<NodeKey, ClientId> cid;
    for (const auto& [key, cost] : facilities)
      fid[key] = b.add_facility(cost);
    for (const auto& [key, alive] : clients) cid[key] = b.add_client();
    for (const auto& [edge, cost] : edges)
      b.connect(fid.at(edge.first), cid.at(edge.second), cost);
    return b.build();
  }
};

TEST(DeltaLog, RandomizedApplyMatchesScratchBuild) {
  Rng rng(0xD317A5EEDULL);
  Model model;
  InstanceBuilder seed_builder;
  for (int i = 0; i < 8; ++i) {
    const Cost opening = rng.uniform_real(1.0, 50.0);
    seed_builder.add_facility(opening);
    model.facilities[model.next_f++] = opening;
  }
  for (int j = 0; j < 24; ++j) {
    const ClientId cj = seed_builder.add_client();
    model.clients[model.next_c] = true;
    const int deg = 1 + static_cast<int>(rng.uniform_u64(3));
    std::vector<std::int32_t> picks;
    while (static_cast<int>(picks.size()) < deg) {
      const auto f = static_cast<std::int32_t>(rng.uniform_u64(8));
      if (std::find(picks.begin(), picks.end(), f) == picks.end())
        picks.push_back(f);
    }
    for (std::int32_t f : picks) {
      const Cost c = rng.uniform_real(0.5, 20.0);
      seed_builder.connect(f, cj, c);
      model.edges[{f, model.next_c}] = c;
    }
    ++model.next_c;
  }
  InstanceSnapshot snap = InstanceSnapshot::initial(seed_builder.build());

  for (int epoch = 0; epoch < 6; ++epoch) {
    DeltaLog log;
    // Opens and reprices are validated against the *final* topology of the
    // log, so collect them during generation and append them at the end,
    // restricted to edges that survive the epoch's churn.
    const NodeKey epoch_f0 = model.next_f;
    std::set<NodeKey> arrival_facilities;
    std::vector<std::pair<NodeKey, Cost>> pending_opens;
    std::vector<std::pair<std::pair<NodeKey, NodeKey>, Cost>> reprices;
    for (int t = 0; t < 25; ++t) {
      const auto dice = rng.uniform_u64(100);
      if (dice < 40) {  // client arrives
        std::vector<KeyedEdge> edges;
        std::vector<NodeKey> fkeys;
        // Only pre-epoch facilities: edges to a same-epoch open are
        // declared by the (deferred) open itself, and declaring them here
        // too would duplicate the edge.
        for (const auto& [key, cost] : model.facilities) {
          if (key < epoch_f0) fkeys.push_back(key);
        }
        const int deg = 1 + static_cast<int>(rng.uniform_u64(
                                std::min<std::uint64_t>(3, fkeys.size())));
        for (int d = 0; d < deg; ++d) {
          const NodeKey f =
              fkeys[rng.uniform_u64(fkeys.size())];
          bool dup = false;
          for (const KeyedEdge& e : edges) dup |= e.peer == f;
          if (dup) continue;
          edges.push_back({f, rng.uniform_real(0.5, 20.0)});
        }
        if (edges.empty()) continue;
        const NodeKey key = model.next_c++;
        for (const KeyedEdge& e : edges) {
          model.edges[{e.peer, key}] = e.cost;
          arrival_facilities.insert(e.peer);
        }
        model.clients[key] = true;
        log.append(Delta::client_arrive(key, edges));
      } else if (dice < 60) {  // client departs
        if (model.clients.size() <= 2) continue;
        auto it = model.clients.begin();
        std::advance(it, static_cast<long>(
                             rng.uniform_u64(model.clients.size())));
        const NodeKey key = it->first;
        model.clients.erase(it);
        for (auto e = model.edges.begin(); e != model.edges.end();) {
          if (e->first.second == key)
            e = model.edges.erase(e);
          else
            ++e;
        }
        log.append(Delta::client_depart(key));
      } else if (dice < 75) {  // facility opens
        const NodeKey key = model.next_f++;
        const Cost opening = rng.uniform_real(1.0, 50.0);
        std::vector<KeyedEdge> edges;
        for (const auto& [ckey, alive] : model.clients) {
          if (rng.uniform_u64(4) == 0)
            edges.push_back({ckey, rng.uniform_real(0.5, 20.0)});
        }
        model.facilities[key] = opening;
        for (const KeyedEdge& e : edges)
          model.edges[{key, e.peer}] = e.cost;
        pending_opens.push_back({key, opening});
      } else if (dice < 85) {  // facility closes (skip if it orphans)
        if (model.facilities.size() <= 2) continue;
        auto it = model.facilities.begin();
        std::advance(it, static_cast<long>(
                             rng.uniform_u64(model.facilities.size())));
        const NodeKey key = it->first;
        // Deferred opens are appended after any close, so closing one
        // would reorder open/close for the same key; skip those. Likewise
        // skip facilities an in-epoch arrival references — arrival edges
        // are validated against the final topology.
        if (key >= epoch_f0) continue;
        if (arrival_facilities.count(key) != 0) continue;
        bool orphans = false;
        for (const auto& [ckey, alive] : model.clients) {
          int other = 0;
          bool uses = false;
          for (const auto& [edge, cost] : model.edges) {
            if (edge.second != ckey) continue;
            if (edge.first == key)
              uses = true;
            else
              ++other;
          }
          if (uses && other == 0) {
            orphans = true;
            break;
          }
        }
        if (orphans) continue;
        model.facilities.erase(it);
        for (auto e = model.edges.begin(); e != model.edges.end();) {
          if (e->first.first == key)
            e = model.edges.erase(e);
          else
            ++e;
        }
        log.append(Delta::facility_close(key));
      } else {  // reprice an existing edge
        if (model.edges.empty()) continue;
        auto it = model.edges.begin();
        std::advance(it, static_cast<long>(
                             rng.uniform_u64(model.edges.size())));
        const Cost c = rng.uniform_real(0.5, 20.0);
        it->second = c;
        reprices.push_back({it->first, c});
      }
    }
    for (const auto& [key, opening] : pending_opens) {
      std::vector<KeyedEdge> edges;
      for (const auto& [edge, cost] : model.edges) {
        if (edge.first == key) edges.push_back({edge.second, cost});
      }
      log.append(Delta::facility_open(key, opening, edges));
    }
    for (const auto& [edge, cost] : reprices) {
      if (model.edges.count(edge) != 0)
        log.append(Delta::edge_cost_change(edge.first, edge.second, cost));
    }
    snap = apply(snap, log);
    EXPECT_EQ(snap.epoch(), epoch + 1);
    expect_same_instance(snap.instance(), model.build());
  }
}

// ---- Serialization round-trips -----------------------------------------

TEST(Serialize, SnapshotRoundTrip) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  DeltaLog log;
  log.append(Delta::client_arrive(3, {{0, 7.25}, {1, 3.5}}));
  log.append(Delta::client_depart(0));
  const InstanceSnapshot next = apply(snap, log);

  const std::string text = snapshot_to_text(next);
  std::vector<std::string> inputs = respellings(text);
  inputs.insert(inputs.begin(), text);
  for (const std::string& input : inputs) {
    SCOPED_TRACE(input);
    const InstanceSnapshot parsed = snapshot_from_text(input);
    EXPECT_EQ(parsed.epoch(), next.epoch());
    EXPECT_EQ(parsed.next_facility_key(), next.next_facility_key());
    EXPECT_EQ(parsed.next_client_key(), next.next_client_key());
    expect_same_instance(parsed.instance(), next.instance());
    for (FacilityId i = 0; i < next.instance().num_facilities(); ++i)
      EXPECT_EQ(parsed.facility_key(i), next.facility_key(i));
    for (ClientId j = 0; j < next.instance().num_clients(); ++j)
      EXPECT_EQ(parsed.client_key(j), next.client_key(j));
  }
}

TEST(Serialize, DeltaLogRoundTripAndReplay) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  DeltaLog log;
  log.append(Delta::client_arrive(3, {{0, 7.0}, {1, 3.0}}));
  log.append(Delta::facility_open(2, 20.0, {{2, 0.5}}));
  log.append(Delta::client_depart(1));
  log.append(Delta::facility_close(2));
  log.append(Delta::edge_cost_change(1, 2, 9.0));

  const std::string text = delta_log_to_text(log);
  for (const std::string& respelled : respellings(text))
    EXPECT_EQ(delta_log_to_text(delta_log_from_text(respelled)), text)
        << respelled;
  const DeltaLog parsed = delta_log_from_text(text);
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t t = 0; t < log.size(); ++t) {
    const Delta& a = log.deltas()[t];
    const Delta& b = parsed.deltas()[t];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.facility, b.facility);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.cost, b.cost);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
      EXPECT_EQ(a.edges[e].peer, b.edges[e].peer);
      EXPECT_EQ(a.edges[e].cost, b.edges[e].cost);
    }
  }
  // Replaying the parsed pair must land on the same epoch-1 instance: the
  // serialized snapshot+log is a faithful checkpoint of the stream.
  const InstanceSnapshot a = apply(snap, log);
  const InstanceSnapshot b =
      apply(snapshot_from_text(snapshot_to_text(snap)), parsed);
  expect_same_instance(a.instance(), b.instance());
}

TEST(Serialize, RejectsMalformedSnapshotAndLog) {
  EXPECT_THROW((void)snapshot_from_text("dflp-snap 2\n"), CheckError);
  EXPECT_THROW((void)delta_log_from_text("dflp-delta-log 1\n1\nwobble 3\n"),
               CheckError);
}

}  // namespace
}  // namespace dflp::fl
