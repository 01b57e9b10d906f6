// Tests for the snapshot + delta-log layer: apply() must equal building
// the mutated instance from scratch in canonical (ascending-key) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fl/delta.h"
#include "fl/instance.h"

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
  EXPECT_EQ(snap.client_key(2), 2);
  EXPECT_EQ(snap.client_index(2), 2);
  EXPECT_EQ(snap.client_index(99), -1);
  EXPECT_EQ(snap.next_client_key(), 3);
}

TEST(DeltaLog, ApplyAllKindsMatchesScratchBuild) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  DeltaLog log;
  log.append(Delta::client_arrive(3, {{1, 3.0}, {0, 7.0}}));
  log.append(Delta::client_depart(1));
  log.append(Delta::client_arrive(4, {{1, 0.5}}));

  const InstanceSnapshot next = apply(snap, log);
  EXPECT_EQ(next.epoch(), 1);
  EXPECT_EQ(next.next_client_key(), 5);

  // Scratch build in canonical order: facilities as they were, surviving
  // clients (ascending key), then arrivals (log order). Final clients:
  // keys 0, 2, 3, 4. Client 1 was the only one facilities 0 and 1 shared,
  // so arrival 3 bridges the two components its departure leaves.
  InstanceBuilder b;
  (void)b.add_facility(10.0);
  (void)b.add_facility(5.0);
  (void)b.add_client();  // key 0 -> dense 0
  (void)b.add_client();  // key 2 -> dense 1
  (void)b.add_client();  // key 3 -> dense 2 (arrived)
  (void)b.add_client();  // key 4 -> dense 3 (arrived)
  b.connect(0, 0, 1.0);  // survivor edges
  b.connect(1, 1, 1.0);
  b.connect(0, 2, 7.0);  // arrival edges
  b.connect(1, 2, 3.0);
  b.connect(1, 3, 0.5);
  expect_same_instance(next.instance(), b.build());

  EXPECT_EQ(next.client_key(1), 2);
  EXPECT_EQ(next.client_key(3), 4);
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

/// Expects apply() to throw a CheckError whose message contains `what`.
void expect_rejected(const InstanceSnapshot& snap, const DeltaLog& log,
                     const std::string& what) {
  try {
    (void)apply(snap, log);
    ADD_FAILURE() << "apply accepted a log that should fail with: " << what;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(DeltaLog, RejectsInconsistentDeltas) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(tiny());
  {
    DeltaLog log;  // stale arrival key
    log.append(Delta::client_arrive(1, {{0, 1.0}}));
    expect_rejected(snap, log, "client arrival key 1 not fresh (next is 3)");
  }
  {
    DeltaLog log;  // unknown departure
    log.append(Delta::client_depart(77));
    expect_rejected(snap, log, "client departure for absent key 77");
  }
  {
    DeltaLog log;  // a key departed twice in one log
    log.append(Delta::client_depart(1));
    log.append(Delta::client_depart(1));
    expect_rejected(snap, log, "client departure for absent key 1");
  }
  {
    DeltaLog log;  // arrival referencing an absent facility
    log.append(Delta::client_arrive(3, {{9, 1.0}}));
    expect_rejected(snap, log,
                    "client arrival 3 references facility key 9 absent from "
                    "the epoch");
  }
  {
    DeltaLog log;  // arrival referencing a negative facility id
    log.append(Delta::client_arrive(3, {{0, 1.0}, {-1, 1.0}}));
    expect_rejected(snap, log,
                    "client arrival 3 references facility key -1 absent "
                    "from the epoch");
  }
  {
    DeltaLog log;  // arrivals must carry an edge
    log.append(Delta::client_arrive(3, {}));
    expect_rejected(snap, log, "client arrival 3 must carry at least one edge");
  }
  {
    DeltaLog log;  // the largest key would leave no next key
    const NodeKey last = std::numeric_limits<NodeKey>::max();
    log.append(Delta::client_arrive(last, {{0, 1.0}}));
    expect_rejected(snap, log,
                    "client arrival key " + std::to_string(last) +
                        " leaves no next key");
  }
  {
    DeltaLog log;  // every client leaves
    for (const NodeKey key : {0, 1, 2}) log.append(Delta::client_depart(key));
    expect_rejected(snap, log, "instance has no clients");
  }
  // Dense ids in the messages are the next epoch's: tiny()'s clients 0-2
  // survive, so an arriving client is 3.
  {
    DeltaLog log;  // one arrival names a facility twice
    log.append(Delta::client_arrive(3, {{0, 1.0}, {1, 2.0}, {0, 3.0}}));
    expect_rejected(snap, log, "duplicate edge (facility=0, client=3)");
  }
  {
    DeltaLog log;  // negative arrival edge
    log.append(Delta::client_arrive(3, {{0, -1.0}}));
    expect_rejected(snap, log,
                    "connection cost must be finite and non-negative, "
                    "got -1");
  }
  {
    DeltaLog log;  // non-finite arrival edge
    log.append(Delta::client_arrive(
        3, {{0, std::numeric_limits<Cost>::infinity()}}));
    expect_rejected(snap, log,
                    "connection cost must be finite and non-negative, "
                    "got inf");
  }
}

// ---- Randomized property: apply() == scratch build, over many epochs ----

struct Model {
  // Ascending-key maps mirror the canonical snapshot ordering.
  std::vector<Cost> facilities;
  std::map<NodeKey, bool> clients;
  std::map<std::pair<FacilityId, NodeKey>, Cost> edges;  // (facility, ckey)
  NodeKey next_c = 0;

  [[nodiscard]] Instance build() const {
    InstanceBuilder b;
    std::map<NodeKey, ClientId> cid;
    for (const Cost cost : facilities) (void)b.add_facility(cost);
    for (const auto& [key, alive] : clients) cid[key] = b.add_client();
    for (const auto& [edge, cost] : edges)
      b.connect(edge.first, cid.at(edge.second), cost);
    return b.build();
  }
};

TEST(DeltaLog, RandomizedApplyMatchesScratchBuild) {
  constexpr int kFacilities = 8;
  Rng rng(0xD317A5EEDULL);
  Model model;
  InstanceBuilder seed_builder;
  for (int i = 0; i < kFacilities; ++i) {
    const Cost opening = rng.uniform_real(1.0, 50.0);
    seed_builder.add_facility(opening);
    model.facilities.push_back(opening);
  }
  // Draws 1-3 distinct facilities anywhere, so an arrival often joins
  // facilities that no client shares yet.
  const auto pick_facilities = [&rng] {
    const int deg = 1 + static_cast<int>(rng.uniform_u64(3));
    std::vector<FacilityId> picks;
    while (static_cast<int>(picks.size()) < deg) {
      const auto f = static_cast<FacilityId>(rng.uniform_u64(kFacilities));
      if (std::find(picks.begin(), picks.end(), f) == picks.end())
        picks.push_back(f);
    }
    return picks;
  };
  for (int j = 0; j < 24; ++j) {
    const ClientId cj = seed_builder.add_client();
    model.clients[model.next_c] = true;
    for (FacilityId f : pick_facilities()) {
      const Cost c = rng.uniform_real(0.5, 20.0);
      seed_builder.connect(f, cj, c);
      model.edges[{f, model.next_c}] = c;
    }
    ++model.next_c;
  }
  InstanceSnapshot snap = InstanceSnapshot::initial(seed_builder.build());

  for (int epoch = 0; epoch < 6; ++epoch) {
    DeltaLog log;
    for (int t = 0; t < 25; ++t) {
      if (rng.uniform_u64(100) < 60) {  // client arrives
        std::vector<KeyedEdge> edges;
        for (FacilityId f : pick_facilities())
          edges.push_back({f, rng.uniform_real(0.5, 20.0)});
        const NodeKey key = model.next_c++;
        for (const KeyedEdge& e : edges) model.edges[{e.peer, key}] = e.cost;
        model.clients[key] = true;
        log.append(Delta::client_arrive(key, edges));
      } else {  // client departs, possibly one that arrived this epoch
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
      }
    }
    snap = apply(snap, log);
    EXPECT_EQ(snap.epoch(), epoch + 1);
    expect_same_instance(snap.instance(), model.build());
  }
}

}  // namespace
}  // namespace dflp::fl
