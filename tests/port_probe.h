// A probe process for the port contract of netsim/message.h: every
// delivered message satisfies `ctx.neighbors()[msg.port] == msg.src`. The
// probe checks it on every delivery and counts deliveries, so a test can
// also compare how many messages got through. Its traffic mixes
// broadcasts (even rounds) with unicasts to a seeded subset of neighbours
// (odd rounds) for `rounds` rounds, then halts.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "netsim/fault.h"
#include "netsim/metrics.h"
#include "netsim/network.h"

namespace dflp::net {

class PortProbe final : public Process {
 public:
  explicit PortProbe(std::uint64_t rounds) : rounds_(rounds) {}

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    const std::span<const NodeId> nbrs = ctx.neighbors();
    for (const Message& msg : inbox) {
      ++deliveries_;
      if (msg.port < 0 || msg.port >= static_cast<int>(nbrs.size()) ||
          nbrs[static_cast<std::size_t>(msg.port)] != msg.src ||
          msg.dst != ctx.self())
        ++bad_ports_;
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    if (ctx.round() % 2 == 0) {
      ctx.broadcast(1, {ctx.self(), 0, 0});
      return;
    }
    for (const NodeId nb : nbrs) {
      if (ctx.rng().bernoulli(0.5)) ctx.send(nb, 2, {nb, 0, 0});
    }
  }

  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return deliveries_;
  }
  [[nodiscard]] std::uint64_t bad_ports() const noexcept { return bad_ports_; }

 private:
  std::uint64_t rounds_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t bad_ports_ = 0;
};

/// Deliveries and port violations summed over every node's probe.
struct ProbeTotals {
  std::uint64_t deliveries = 0;
  std::uint64_t bad_ports = 0;
};

/// Sums the probes of `n` nodes, reached through `probe_of(node)`.
template <typename ProbeOf>
ProbeTotals sum_probes(std::size_t n, ProbeOf&& probe_of) {
  ProbeTotals t;
  for (std::size_t v = 0; v < n; ++v) {
    const PortProbe& p = probe_of(static_cast<NodeId>(v));
    t.deliveries += p.deliveries();
    t.bad_ports += p.bad_ports();
  }
  return t;
}

/// A seeded random graph on `n` nodes: a ring (so every node has a
/// neighbour) plus each other pair with probability `p`.
inline std::vector<std::pair<NodeId, NodeId>> probe_graph(std::size_t n,
                                                          double p,
                                                          std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  Rng rng(seed);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (v == u + 1 || (u == 0 && v == n - 1) || rng.bernoulli(p))
        edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  }
  return edges;
}

/// Probe totals and engine metrics of one synchronous probe run.
struct ProbeRun {
  ProbeTotals totals;
  NetMetrics metrics;
};

/// Runs a 6-round probe on `probe_graph(n, 0.15, 11)` or on the n-clique.
inline ProbeRun run_port_probe(Topology topology, std::size_t n,
                               DeliveryOrder delivery,
                               const FaultPlan::Options& faults) {
  Network::Options o;
  o.topology = topology;
  o.bit_budget = 64;
  o.seed = 7;
  o.delivery = delivery;
  o.faults = faults;
  Network net(n, o);
  if (topology == Topology::kExplicit) {
    for (const auto& [u, v] : probe_graph(n, 0.15, 11)) net.add_edge(u, v);
  }
  net.finalize();
  for (std::size_t v = 0; v < n; ++v)
    net.set_process(static_cast<NodeId>(v), std::make_unique<PortProbe>(6));
  ProbeRun run;
  run.metrics = net.run(20);
  run.totals = sum_probes(n, [&](NodeId v) -> const PortProbe& {
    return static_cast<const PortProbe&>(net.process(v));
  });
  return run;
}

/// Fault modes of the port sweep: none, duplication, i.i.d. drop.
inline std::vector<FaultPlan::Options> probe_fault_modes() {
  std::vector<FaultPlan::Options> modes(3);
  modes[1].duplicate_probability = 0.3;
  modes[2].drop_probability = 0.2;
  return modes;
}

/// Every delivery order x fault mode: no delivery breaks the port
/// contract, every survivor is delivered, and the hazards did fire where
/// enabled.
inline void expect_ports_hold(Topology topology, std::size_t n) {
  for (const DeliveryOrder delivery :
       {DeliveryOrder::kBySource, DeliveryOrder::kRandomShuffle,
        DeliveryOrder::kReverseSource}) {
    for (const FaultPlan::Options& faults : probe_fault_modes()) {
      const ProbeRun run = run_port_probe(topology, n, delivery, faults);
      SCOPED_TRACE(::testing::Message()
                   << "delivery=" << static_cast<int>(delivery)
                   << " dup=" << faults.duplicate_probability
                   << " drop=" << faults.drop_probability);
      EXPECT_EQ(run.totals.bad_ports, 0u);
      EXPECT_GT(run.totals.deliveries, 0u);
      EXPECT_EQ(run.totals.deliveries, run.metrics.messages);
      EXPECT_EQ(run.metrics.duplicated > 0,
                faults.duplicate_probability > 0.0);
      EXPECT_EQ(run.metrics.dropped > 0, faults.drop_probability > 0.0);
    }
  }
}

}  // namespace dflp::net
