// Tests for the reliable-transport recovery layer: channel-level recovery
// and contracts on small lossy networks (frame accounting, the inner and
// physical bit budgets, halts, sleep hints, the direct run's round
// structure under loss), end-to-end mw-greedy equality with the fault-free
// golden without loss and under drops / duplication / boot crashes, the
// round dilation bound, and the property test over sampled fault plans
// (with recovery: feasible and identical to fault-free; without: a
// deterministic failure naming the first lost message).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/mw_greedy.h"
#include "core/params.h"
#include "harness/faults.h"
#include "netsim/network.h"
#include "netsim/reliable.h"
#include "port_probe.h"
#include "rejection.h"
#include "workload/generators.h"

namespace dflp {
namespace {

TEST(ReliableBitBudget, WidensInnerBudgetForHeader) {
  const int b = net::reliable_bit_budget(64, 100);
  EXPECT_GT(b, 64);
  // Header cost grows with the logical round bound (seq/ack/tag widths).
  EXPECT_GE(net::reliable_bit_budget(64, 100000), b);
  EXPECT_GT(net::reliable_bit_budget(8, 1), 8);
}

TEST(ReliableStats, MergeTakesMaxRoundsAndSumsCounters) {
  net::ReliableStats a;
  a.logical_rounds = 10;
  a.physical_rounds = 30;
  a.items_sent = 5;
  a.retransmissions = 2;
  a.ack_frames = 1;
  a.duplicates_discarded = 3;
  net::ReliableStats b;
  b.logical_rounds = 7;
  b.physical_rounds = 40;
  b.items_sent = 4;
  b.retransmissions = 1;
  b.ack_frames = 2;
  b.duplicates_discarded = 1;
  a.merge(b);
  EXPECT_EQ(a.logical_rounds, 10u);
  EXPECT_EQ(a.physical_rounds, 40u);
  EXPECT_EQ(a.items_sent, 9u);
  EXPECT_EQ(a.retransmissions, 3u);
  EXPECT_EQ(a.ack_frames, 3u);
  EXPECT_EQ(a.duplicates_discarded, 4u);
}

/// Process programmable with a small lambda per round.
class Script final : public net::Process {
 public:
  using Fn =
      std::function<void(net::NodeContext&, std::span<const net::Message>)>;
  explicit Script(Fn fn) : fn_(std::move(fn)) {}
  void on_round(net::NodeContext& ctx,
                std::span<const net::Message> inbox) override {
    fn_(ctx, inbox);
  }

 private:
  Fn fn_;
};

/// A 2-node network (edge 0-1) whose nodes run `inner(v)` under the
/// channel with an inner budget of `inner_budget` bits.
template <typename InnerOf>
net::Network channel_pair(const net::Network::Options& o, int inner_budget,
                          InnerOf&& inner) {
  net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);
  for (net::NodeId v : {0, 1}) {
    net.set_process(v, std::make_unique<net::ReliableChannel>(inner(v),
                                                              inner_budget));
  }
  return net;
}

const net::ReliableChannel& channel_of(const net::Network& net,
                                       net::NodeId v) {
  return static_cast<const net::ReliableChannel&>(net.process(v));
}

/// ReliableStats merged over every node's channel.
net::ReliableStats merged_stats(const net::Network& net) {
  net::ReliableStats total;
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(net.num_nodes()); ++v)
    total.merge(channel_of(net, v).stats());
  return total;
}

/// One PortProbe run on `probe_graph(30, 0.15, 11)` under the channel.
struct ChannelProbeRun {
  net::ProbeTotals totals;
  net::NetMetrics metrics;
  net::ReliableStats stats;
  bool all_halted = false;
};

ChannelProbeRun run_probe_under_channel(const net::FaultPlan::Options& faults) {
  constexpr std::size_t kNodes = 30;
  constexpr int kInnerBudget = 64;
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(kInnerBudget, 16);
  o.seed = 7;
  o.faults = faults;
  net::Network net(
      net::build_sorted_adjacency(kNodes, net::probe_graph(kNodes, 0.15, 11)),
      o);
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(kNodes); ++v) {
    net.set_process(v, std::make_unique<net::ReliableChannel>(
                           std::make_unique<net::PortProbe>(6), kInnerBudget));
  }
  ChannelProbeRun run;
  run.metrics = net.run(4000);
  run.all_halted = net.all_halted();
  run.stats = merged_stats(net);
  run.totals =
      net::sum_probes(kNodes, [&](net::NodeId v) -> const net::PortProbe& {
        return static_cast<const net::PortProbe&>(channel_of(net, v).inner());
      });
  return run;
}

TEST(ReliableChannel, RejectsANullInnerAndABudgetBelowAnOpcode) {
  std::string msg = rejection_message(
      [] { net::ReliableChannel channel(nullptr, 64); });
  EXPECT_NE(msg.find("reliable channel needs an inner process"),
            std::string::npos)
      << msg;
  msg = rejection_message([] {
    net::ReliableChannel channel(
        std::make_unique<Script>([](auto&, auto) {}), 7);
  });
  EXPECT_NE(msg.find("inner bit budget 7 cannot fit an opcode"),
            std::string::npos)
      << msg;
}

TEST(ReliableChannel, LossFreeLinksNeverRetransmit) {
  // Acks arrive within kRtoInitial on a loss-free link, so neither the
  // timer nor the tail-loss probe fires and no copy is discarded: every
  // frame is a first transmission or an ack, and the inner protocol runs
  // the direct run's rounds and sees its deliveries.
  const net::ProbeRun direct = net::run_port_probe(
      /*clique=*/false, 30, net::DeliveryOrder::kBySource, {});
  const ChannelProbeRun run = run_probe_under_channel({});
  ASSERT_TRUE(run.all_halted);
  EXPECT_EQ(run.stats.retransmissions, 0u);
  EXPECT_EQ(run.stats.duplicates_discarded, 0u);
  EXPECT_EQ(run.metrics.messages, run.stats.items_sent + run.stats.ack_frames);
  EXPECT_EQ(run.stats.logical_rounds, direct.metrics.rounds);
  EXPECT_GT(run.stats.physical_rounds, run.stats.logical_rounds);
  EXPECT_EQ(run.totals.deliveries, direct.totals.deliveries);
  EXPECT_EQ(run.totals.bad_ports, 0u);
}

TEST(ReliableChannel, EveryFrameIsAnItemARetransmissionOrAnAck) {
  // The channel's counters account for every frame it sends: the engine
  // delivers them less its drops and plus its duplicates.
  net::FaultPlan::Options faults;
  faults.drop_probability = 0.2;
  faults.duplicate_probability = 0.1;
  faults.fault_seed = 5;
  const ChannelProbeRun run = run_probe_under_channel(faults);
  ASSERT_TRUE(run.all_halted);
  EXPECT_GT(run.metrics.dropped, 0u);
  EXPECT_GT(run.metrics.duplicated, 0u);
  EXPECT_GT(run.stats.retransmissions, 0u);
  EXPECT_GT(run.stats.duplicates_discarded, 0u);
  EXPECT_EQ(run.stats.items_sent + run.stats.retransmissions +
                run.stats.ack_frames,
            run.metrics.messages + run.metrics.dropped -
                run.metrics.duplicated);
}

TEST(ReliableChannel, RunIsAPureFunctionOfItsSeeds) {
  // The same fault plan reproduces the physical run exactly; another fault
  // seed loses other frames, but the inner protocol's deliveries stay those
  // of the loss-free run. The plan uses the burst chain and duplication,
  // whose streams are keyed by fault_seed (the i.i.d. drop stream is not).
  net::FaultPlan::Options faults;
  faults.burst.p_good_to_bad = 0.05;
  faults.burst.p_bad_to_good = 0.5;
  faults.duplicate_probability = 0.1;
  faults.fault_seed = 5;
  const ChannelProbeRun first = run_probe_under_channel(faults);
  const ChannelProbeRun again = run_probe_under_channel(faults);
  EXPECT_EQ(again.metrics.to_string(), first.metrics.to_string());
  EXPECT_EQ(again.metrics.total_bits, first.metrics.total_bits);
  EXPECT_EQ(again.stats.to_string(), first.stats.to_string());

  faults.fault_seed = 6;
  const ChannelProbeRun other = run_probe_under_channel(faults);
  EXPECT_GT(first.metrics.dropped, 0u);
  EXPECT_GT(other.metrics.dropped, 0u);
  EXPECT_NE(other.stats.to_string(), first.stats.to_string());
  const ChannelProbeRun clean = run_probe_under_channel({});
  EXPECT_EQ(first.totals.deliveries, clean.totals.deliveries);
  EXPECT_EQ(other.totals.deliveries, clean.totals.deliveries);
}

TEST(ReliableChannel, FloodKeepsTheDirectRunsRoundsUnderLoss) {
  // Node 0 floods a token; every node records the logical round it first
  // hears it and forwards it once. The round a node first hears is its hop
  // distance from node 0, so under loss and duplication the channel must
  // reproduce the direct run's rounds node by node, not just its totals.
  constexpr std::size_t kNodes = 30;
  constexpr int kInnerBudget = 64;
  const auto edges = net::probe_graph(kNodes, 0.05, 3);
  const auto flood = [](std::vector<std::int64_t>& heard) {
    return [&heard](net::NodeContext& ctx,
                    std::span<const net::Message> inbox) {
      auto& mine = heard[static_cast<std::size_t>(ctx.self())];
      if (mine < 0 && (!inbox.empty() || ctx.self() == 0)) {
        mine = static_cast<std::int64_t>(ctx.round());
        ctx.broadcast(1, {mine, 0, 0});
      }
      if (ctx.round() >= kNodes) ctx.halt();
    };
  };
  const auto run = [&](const net::FaultPlan::Options& faults, bool reliable) {
    std::vector<std::int64_t> heard(kNodes, -1);
    net::Network::Options o;
    o.bit_budget =
        reliable ? net::reliable_bit_budget(kInnerBudget, 64) : kInnerBudget;
    o.seed = 3;
    o.faults = faults;
    net::Network net(net::build_sorted_adjacency(kNodes, edges), o);
    for (net::NodeId v = 0; v < static_cast<net::NodeId>(kNodes); ++v) {
      auto inner = std::make_unique<Script>(flood(heard));
      if (reliable) {
        net.set_process(v, std::make_unique<net::ReliableChannel>(
                               std::move(inner), kInnerBudget));
      } else {
        net.set_process(v, std::move(inner));
      }
    }
    const net::NetMetrics m = net.run(8000);
    EXPECT_TRUE(net.all_halted());
    if (faults.drop_probability > 0.0) {
      EXPECT_GT(m.dropped, 0u);
    }
    return heard;
  };

  const std::vector<std::int64_t> want = run({}, false);
  EXPECT_EQ(want[0], 0);
  EXPECT_GT(*std::max_element(want.begin(), want.end()), 2);
  for (const std::int64_t r : want) EXPECT_GE(r, 0);
  net::FaultPlan::Options lossy;
  lossy.drop_probability = 0.25;
  lossy.duplicate_probability = 0.1;
  lossy.fault_seed = 9;
  EXPECT_EQ(run(lossy, true), want);
}

TEST(ReliableChannel, InnerSleepHintsAreDropped) {
  // The inner protocol's staging buffer has no wake slot: a sleep hint
  // neither skips the inner's logical rounds nor puts its channel to sleep.
  // The hint below is honest (the steps it covers do nothing but count).
  std::vector<std::uint64_t> steps(2, 0);
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 16);
  net::Network net = channel_pair(o, 64, [&steps](net::NodeId) {
    return std::make_unique<Script>([&steps](net::NodeContext& ctx, auto) {
      ++steps[static_cast<std::size_t>(ctx.self())];
      if (ctx.round() == 0) ctx.sleep_until(5);
      if (ctx.round() == 5) ctx.halt();
    });
  });
  (void)net.run(400);
  ASSERT_TRUE(net.all_halted());
  EXPECT_EQ(steps[0], 6u);
  EXPECT_EQ(steps[1], 6u);
  EXPECT_EQ(channel_of(net, 0).stats().logical_rounds, 6u);
}

TEST(ReliableChannel, IsolatedNodeHaltsWithItsInner) {
  // A channel with no links waits for nobody: it runs one logical round per
  // physical round and halts in the round its inner protocol halts.
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 16);
  net::Network net(net::build_sorted_adjacency(3, {{0, 1}}), o);
  for (net::NodeId v : {0, 1, 2}) {
    net.set_process(v, std::make_unique<net::ReliableChannel>(
                           std::make_unique<Script>(
                               [](net::NodeContext& ctx, auto) {
                                 ctx.broadcast(1);
                                 if (ctx.round() == 2) ctx.halt();
                               }),
                           64));
  }
  (void)net.run(400);
  ASSERT_TRUE(net.all_halted());
  const net::ReliableChannel& isolated = channel_of(net, 2);
  EXPECT_TRUE(isolated.inner_halted());
  EXPECT_EQ(isolated.stats().logical_rounds, 3u);
  EXPECT_EQ(isolated.stats().physical_rounds, 3u);
  EXPECT_EQ(isolated.stats().items_sent, 0u);
  // The linked pair lingers after its inner protocols halt.
  EXPECT_GT(channel_of(net, 0).stats().physical_rounds,
            static_cast<std::uint64_t>(net::ReliableChannel::kLinger));
}

TEST(ReliableChannel, HaltedInnerIsNeverSteppedAgain) {
  // Node 1's inner protocol halts after its first delivery while node 0
  // keeps sending to it: as on the direct engine, the halted node is not
  // stepped again, and its channel keeps acking until node 0 finishes.
  std::uint64_t steps_after_halt = 0;
  std::uint64_t sender_steps = 0;
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 16);
  net::Network net = channel_pair(o, 64, [&](net::NodeId v)
                                             -> std::unique_ptr<net::Process> {
    if (v == 0) {
      return std::make_unique<Script>([&](net::NodeContext& ctx, auto) {
        ++sender_steps;
        if (ctx.round() < 5)
          ctx.send(1, 1, {static_cast<std::int64_t>(ctx.round()) + 1, 0, 0});
        else
          ctx.halt();
      });
    }
    return std::make_unique<Script>(
        [&, halted = false](net::NodeContext& ctx,
                            std::span<const net::Message> inbox) mutable {
          if (halted) ++steps_after_halt;
          if (!inbox.empty()) {
            halted = true;
            ctx.halt();
          }
        });
  });
  (void)net.run(400);
  ASSERT_TRUE(net.all_halted());
  EXPECT_EQ(steps_after_halt, 0u);
  EXPECT_EQ(sender_steps, 6u);
  EXPECT_EQ(channel_of(net, 1).stats().logical_rounds, 2u);
  // Node 0's five items and its FIN all reached node 1's channel.
  EXPECT_EQ(channel_of(net, 0).stats().items_sent, 6u);
}

TEST(ReliableChannel, InnerBudgetIsCheckedOnThePayloadAlone) {
  // The inner protocol's sends are checked against the inner budget before
  // any header is added: a 16-bit payload passes a 16-bit inner budget
  // though its frame is wider, and a 17-bit one is refused.
  for (const int declared : {16, 17}) {
    net::Network::Options o;
    o.bit_budget = net::reliable_bit_budget(16, 16);
    std::vector<int> got;
    net::Network net =
        channel_pair(o, 16, [&got, declared](net::NodeId) {
          return std::make_unique<Script>(
              [&got, declared](net::NodeContext& ctx,
                               std::span<const net::Message> inbox) {
                for (const net::Message& m : inbox) got.push_back(m.bits);
                if (ctx.round() == 0) ctx.broadcast(1, {100, 0, 0}, declared);
                if (ctx.round() == 1) ctx.halt();
              });
        });
    if (declared == 16) {
      (void)net.run(400);
      EXPECT_TRUE(net.all_halted());
      EXPECT_EQ(got, (std::vector<int>{16, 16}));
      EXPECT_GT(net.cumulative_metrics().max_message_bits, 16);
    } else {
      const std::string msg = rejection_message([&] { (void)net.run(400); });
      EXPECT_NE(msg.find("message of 17 bits exceeds CONGEST budget 16"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(ReliableChannel, PaddedPayloadsNeedTheWidenedPhysicalBudget) {
  // A payload padded to the whole inner budget leaves no room for the
  // header on a physical link of the same width; reliable_bit_budget()'s
  // width carries it, and the receiver's inner protocol sees the declared
  // size, not the frame's.
  for (const bool widened : {false, true}) {
    net::Network::Options o;
    o.bit_budget = widened ? net::reliable_bit_budget(64, 16) : 64;
    std::vector<int> got;
    net::Network net = channel_pair(o, 64, [&got](net::NodeId) {
      return std::make_unique<Script>(
          [&got](net::NodeContext& ctx, std::span<const net::Message> inbox) {
            for (const net::Message& m : inbox) {
              EXPECT_FALSE(m.has_header);
              got.push_back(m.bits);
            }
            if (ctx.round() == 0) ctx.broadcast(1, {3, 0, 0}, 64);
            if (ctx.round() == 1) ctx.halt();
          });
    });
    if (widened) {
      (void)net.run(400);
      EXPECT_TRUE(net.all_halted());
      EXPECT_EQ(got, (std::vector<int>{64, 64}));
    } else {
      const std::string msg = rejection_message([&] { (void)net.run(400); });
      EXPECT_NE(msg.find("exceeds CONGEST budget 64"), std::string::npos)
          << msg;
    }
  }
}

TEST(ReliableChannel, InnerInboxesCarryPortsUnderLoss) {
  // Links are indexed by the delivered port, and data items keep it: under
  // 20% loss the inner probe still sees every message of the loss-free
  // direct run, each on the right port.
  constexpr std::size_t kNodes = 30;
  constexpr int kInnerBudget = 64;
  const auto edges = net::probe_graph(kNodes, 0.15, 11);
  const auto build = [&](const net::FaultPlan::Options& faults, int budget) {
    net::Network::Options o;
    o.bit_budget = budget;
    o.seed = 7;
    o.faults = faults;
    return net::Network(net::build_sorted_adjacency(kNodes, edges), o);
  };

  net::Network direct = build({}, kInnerBudget);
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(kNodes); ++v)
    direct.set_process(v, std::make_unique<net::PortProbe>(6));
  (void)direct.run(20);
  const net::ProbeTotals want =
      net::sum_probes(kNodes, [&](net::NodeId v) -> const net::PortProbe& {
        return static_cast<const net::PortProbe&>(direct.process(v));
      });

  net::FaultPlan::Options lossy;
  lossy.drop_probability = 0.2;
  net::Network net = build(lossy, net::reliable_bit_budget(kInnerBudget, 16));
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(kNodes); ++v) {
    net.set_process(v, std::make_unique<net::ReliableChannel>(
                           std::make_unique<net::PortProbe>(6), kInnerBudget));
  }
  (void)net.run(4000);
  ASSERT_TRUE(net.all_halted());
  EXPECT_GT(net.cumulative_metrics().dropped, 0u);
  const net::ProbeTotals got =
      net::sum_probes(kNodes, [&](net::NodeId v) -> const net::PortProbe& {
        return static_cast<const net::PortProbe&>(
            static_cast<const net::ReliableChannel&>(net.process(v)).inner());
      });
  EXPECT_GT(want.deliveries, 0u);
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.bad_ports, 0u);
}

TEST(ReliableChannel, SecondSendOnOneLinkInALogicalRoundThrows) {
  // The inner protocol keeps the CONGEST rule per logical round: its
  // standalone staging buffer rejects a second message to one neighbour,
  // a unicast beside a broadcast in either order, and a second broadcast.
  using Sends = std::function<void(net::NodeContext&)>;
  const std::vector<std::pair<const char*, Sends>> inputs = {
      {"unicast, unicast",
       [](net::NodeContext& ctx) {
         ctx.send(1, 1);
         ctx.send(1, 2);
       }},
      {"unicast, broadcast",
       [](net::NodeContext& ctx) {
         ctx.send(1, 1);
         ctx.broadcast(2);
       }},
      {"broadcast, unicast",
       [](net::NodeContext& ctx) {
         ctx.broadcast(2);
         ctx.send(1, 1);
       }},
      {"broadcast, broadcast",
       [](net::NodeContext& ctx) {
         ctx.broadcast(1);
         ctx.broadcast(2);
       }},
  };
  for (const auto& [name, sends] : inputs) {
    net::Network::Options o;
    o.bit_budget = net::reliable_bit_budget(64, 16);
    net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);
    for (net::NodeId v : {0, 1}) {
      net.set_process(
          v, std::make_unique<net::ReliableChannel>(
                 std::make_unique<Script>(
                     [&sends](net::NodeContext& ctx, auto) {
                       if (ctx.self() == 0 && ctx.round() == 1) sends(ctx);
                     }),
                 64));
    }
    try {
      net.run(50);
      ADD_FAILURE() << name << ": no CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("edge allowance exceeded"), std::string::npos)
          << name << ": " << what;
      EXPECT_TRUE(what.find("on 0->1 in round 1") != std::string::npos ||
                  what.find("from 0 in round 1") != std::string::npos)
          << name << ": " << what;
    }
  }
}

TEST(ReliableChannel, RejectsReservedOpcodes) {
  // The opcodes above kMaxProtocolKind carry the channel's own control
  // frames, so the inner protocol's staging buffer refuses them, by unicast
  // and by broadcast alike, naming the opcode and the cap.
  constexpr int kMax = net::ReliableChannel::kMaxProtocolKind;
  for (const int kind : {kMax + 1, int{net::ReliableChannel::kToken}}) {
    for (const bool broadcast : {false, true}) {
      net::Network::Options o;
      o.bit_budget = net::reliable_bit_budget(64, 16);
      net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);
      for (net::NodeId v : {0, 1}) {
        net.set_process(
            v, std::make_unique<net::ReliableChannel>(
                   std::make_unique<Script>(
                       [kind, broadcast](net::NodeContext& ctx, auto) {
                         const auto k = static_cast<std::uint8_t>(kind);
                         if (broadcast)
                           ctx.broadcast(k);
                         else
                           ctx.send(ctx.neighbors()[0], k);
                       }),
                   64));
      }
      const std::string expect = "opcode " + std::to_string(kind) +
                                 " exceeds the allowed maximum " +
                                 std::to_string(kMax);
      try {
        net.run(50);
        ADD_FAILURE() << "kind " << kind << ", broadcast " << broadcast
                      << ": no CheckError";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ReliableChannel, DeliversInOrderUnderHeavyLossAndDuplication) {
  // Node 0 streams the values 1, 2, 3 to node 1 over three logical rounds;
  // node 1 halts once it has them all. The physical network drops 30% of
  // frames and duplicates 20% of the survivors; the channel must still
  // deliver exactly 1, 2, 3 in order.
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 16);
  o.seed = 42;
  o.faults.drop_probability = 0.3;
  o.faults.duplicate_probability = 0.2;
  o.faults.fault_seed = 7;
  net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);

  auto received = std::make_shared<std::vector<std::int64_t>>();
  net.set_process(
      0, std::make_unique<net::ReliableChannel>(
             std::make_unique<Script>([](net::NodeContext& ctx, auto) {
               if (ctx.round() < 3) {
                 ctx.send(1, 1,
                          {static_cast<std::int64_t>(ctx.round()) + 1, 0, 0});
               }
               if (ctx.round() >= 3) ctx.halt();
             }),
             64));
  net.set_process(
      1, std::make_unique<net::ReliableChannel>(
             std::make_unique<Script>(
                 [received](net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
                   for (const net::Message& m : inbox)
                     received->push_back(m.field[0]);
                   if (received->size() >= 3) ctx.halt();
                 }),
             64));

  const net::NetMetrics metrics = net.run(/*max_rounds=*/400);
  ASSERT_EQ(received->size(), 3u);
  EXPECT_EQ((*received)[0], 1);
  EXPECT_EQ((*received)[1], 2);
  EXPECT_EQ((*received)[2], 3);
  // The fault plan actually fired, and the channel cleaned up after it.
  EXPECT_GT(metrics.dropped + metrics.duplicated, 0u);
  const auto& ch0 =
      static_cast<const net::ReliableChannel&>(net.process(0));
  const auto& ch1 =
      static_cast<const net::ReliableChannel&>(net.process(1));
  EXPECT_TRUE(ch0.inner_halted());
  EXPECT_TRUE(ch1.inner_halted());
  net::ReliableStats total = ch0.stats();
  total.merge(ch1.stats());
  EXPECT_GE(total.items_sent, 3u);
  if (metrics.dropped > 0) {
    EXPECT_GT(total.retransmissions, 0u);
  }
  if (metrics.duplicated > 0) {
    EXPECT_GT(total.duplicates_discarded, 0u);
  }
}

TEST(ReliableChannel, BoundedRetransmitsNameTheDeadLink) {
  // Node 1 crash-stops at round 3 while node 0 still owes it traffic. The
  // channel must not spin to the engine round limit: after kMaxRetransmits
  // (64) unacknowledged re-sends it raises a CheckError naming the dead
  // link, well inside the 400-round cap below.
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 16);
  o.seed = 42;
  o.faults.crashes = {{1, 3}};
  net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);

  net.set_process(
      0, std::make_unique<net::ReliableChannel>(
             std::make_unique<Script>([](net::NodeContext& ctx, auto) {
               if (ctx.round() < 8) {
                 ctx.send(1, 1,
                          {static_cast<std::int64_t>(ctx.round()) + 1, 0, 0});
               } else {
                 ctx.halt();
               }
             }),
             64));
  net.set_process(1, std::make_unique<net::ReliableChannel>(
                         std::make_unique<Script>([](auto&, auto) {}), 64));

  try {
    (void)net.run(/*max_rounds=*/400);
    FAIL() << "expected the dead-link CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("reliable link 0 -> 1 is dead"), std::string::npos)
        << what;
    EXPECT_NE(what.find("crash-stopped"), std::string::npos) << what;
  }
}

TEST(ReliableChannel, RetransmitBoundDoesNotTripOnHeavyLoss) {
  // 30% loss with a live peer: retransmission streaks reset on every ack,
  // so the default bound must never fire (the recovery guarantee of the
  // drop tests depends on it).
  net::Network::Options o;
  o.bit_budget = net::reliable_bit_budget(64, 32);
  o.seed = 9;
  o.faults.drop_probability = 0.3;
  o.faults.fault_seed = 3;
  net::Network net(net::build_sorted_adjacency(2, {{0, 1}}), o);

  auto received = std::make_shared<std::vector<std::int64_t>>();
  net.set_process(
      0, std::make_unique<net::ReliableChannel>(
             std::make_unique<Script>([](net::NodeContext& ctx, auto) {
               if (ctx.round() < 16) {
                 ctx.send(1, 1,
                          {static_cast<std::int64_t>(ctx.round()) + 1, 0, 0});
               } else {
                 ctx.halt();
               }
             }),
             64));
  net.set_process(
      1, std::make_unique<net::ReliableChannel>(
             std::make_unique<Script>(
                 [received](net::NodeContext& ctx,
                            std::span<const net::Message> inbox) {
                   for (const net::Message& m : inbox)
                     received->push_back(m.field[0]);
                   if (received->size() >= 16) ctx.halt();
                 }),
             64));
  const net::NetMetrics metrics = net.run(/*max_rounds=*/600);
  EXPECT_EQ(received->size(), 16u);
  EXPECT_GT(metrics.dropped, 0u);
}

core::MwParams clean_params(int k, std::uint64_t seed) {
  core::MwParams p;
  p.k = k;
  p.seed = seed;
  return p;
}

TEST(ReliableRecovery, MwGreedyMatchesFaultFreeSolutionUpToDropPointTwo) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const core::MwGreedyOutcome baseline =
      core::run_mw_greedy(inst, clean_params(4, 11));
  const std::string baseline_fp =
      harness::solution_fingerprint(inst, baseline.solution);
  for (double drop : {0.05, 0.2}) {
    core::MwParams params = clean_params(4, 11);
    params.reliable = true;
    params.faults.drop_probability = drop;
    params.faults.fault_seed = 17;
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    EXPECT_TRUE(out.solution.is_feasible(inst)) << "drop=" << drop;
    EXPECT_EQ(harness::solution_fingerprint(inst, out.solution), baseline_fp)
        << "drop=" << drop;
    EXPECT_GT(out.metrics.dropped, 0u) << "drop=" << drop;
    EXPECT_GT(out.transport.retransmissions, 0u) << "drop=" << drop;
  }
}

TEST(ReliableRecovery, LossFreeChannelKeepsTheBareRunsRoundsAndSolution) {
  // E11's loss-free synchronizer row in miniature: the channel executes the
  // bare run's rounds as logical rounds, retransmits nothing and returns the
  // bare solution; it pays in extra physical rounds, frames and header bits.
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const core::MwGreedyOutcome bare =
      core::run_mw_greedy(inst, clean_params(4, 11));
  core::MwParams params = clean_params(4, 11);
  params.reliable = true;
  const core::MwGreedyOutcome framed = core::run_mw_greedy(inst, params);
  EXPECT_EQ(harness::solution_fingerprint(inst, framed.solution),
            harness::solution_fingerprint(inst, bare.solution));
  const net::ReliableStats& t = framed.transport;
  EXPECT_EQ(t.logical_rounds, bare.metrics.rounds);
  EXPECT_EQ(t.physical_rounds, framed.metrics.rounds);
  EXPECT_GT(t.physical_rounds, t.logical_rounds);
  EXPECT_EQ(t.retransmissions, 0u);
  EXPECT_EQ(t.duplicates_discarded, 0u);
  EXPECT_EQ(framed.metrics.messages, t.items_sent + t.ack_frames);
  EXPECT_GT(framed.metrics.messages, bare.metrics.messages);
  EXPECT_GT(framed.metrics.total_bits, bare.metrics.total_bits);
}

TEST(ReliableRecovery, SurvivesTenPercentBootCrashes) {
  // Enough facilities that a 10% boot-crash plan actually removes some.
  workload::UniformParams gen;
  gen.num_facilities = 40;
  gen.num_clients = 160;
  gen.client_degree = 5;
  const fl::Instance inst = workload::uniform_random(gen, 19);
  core::MwParams params = clean_params(4, 11);
  params.reliable = true;
  params.boot_crash_fraction = 0.10;
  params.faults.drop_probability = 0.2;
  params.faults.fault_seed = 29;
  const harness::FaultRunReport report =
      harness::run_fault_scenario(inst, params, "boot-crash-10");
  EXPECT_TRUE(report.completed) << report.diagnostic;
  EXPECT_TRUE(report.feasible);
  // The baseline shares the boot-crash pruning (it depends only on
  // fault_seed), so the recovered run must reproduce it exactly.
  EXPECT_TRUE(report.matches_fault_free);
  EXPECT_GT(report.crashed, 0u);
  EXPECT_GT(report.dropped, 0u);
}

TEST(ReliableRecovery, RoundDilationUnderFourAtDropPointTwo) {
  // Acceptance bound from the issue: on the bipartite generator, the
  // recovered run at drop 0.2 finishes within 4x the rounds of the
  // fault-free run under the same transport.
  workload::UniformParams gen;
  gen.num_facilities = 30;
  gen.num_clients = 120;
  gen.client_degree = 4;
  const fl::Instance inst = workload::uniform_random(gen, 13);
  core::MwParams params = clean_params(4, 11);
  params.reliable = true;
  params.faults.drop_probability = 0.2;
  params.faults.fault_seed = 31;
  const harness::FaultRunReport report =
      harness::run_fault_scenario(inst, params, "dilation");
  EXPECT_TRUE(report.completed) << report.diagnostic;
  EXPECT_TRUE(report.matches_fault_free);
  EXPECT_GT(report.round_dilation, 0.0);
  EXPECT_LT(report.round_dilation, 4.0);
}

/// Samples a message-fault plan from `seed`: i.i.d. drops up to 0.2,
/// duplication up to 0.1, and (for odd seeds) a burst-loss chain.
net::FaultPlan::Options sample_plan(std::uint64_t seed) {
  Rng rng(derive_stream_seed(seed, 0x9E3779B97F4A7C15ULL, 0));
  net::FaultPlan::Options o;
  o.drop_probability = 0.1 + 0.1 * (rng.uniform_u64(100) / 99.0);
  o.duplicate_probability = 0.1 * (rng.uniform_u64(100) / 99.0);
  if (seed % 2 == 1) {
    o.burst.p_good_to_bad = 0.05;
    o.burst.p_bad_to_good = 0.5;
  }
  o.fault_seed = seed * 1315423911ULL + 3;
  return o;
}

TEST(ReliableRecovery, PropertySampledPlansRecoverOrFailDeterministically) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const core::MwGreedyOutcome baseline =
      core::run_mw_greedy(inst, clean_params(4, 11));
  const std::string baseline_fp =
      harness::solution_fingerprint(inst, baseline.solution);

  int failures_without_recovery = 0;
  for (std::uint64_t sample = 0; sample < 4; ++sample) {
    const net::FaultPlan::Options plan = sample_plan(sample);

    // With recovery: always completes, feasible, bit-identical solution.
    core::MwParams recovered = clean_params(4, 11);
    recovered.reliable = true;
    recovered.faults = plan;
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, recovered);
    EXPECT_TRUE(out.solution.is_feasible(inst)) << "sample " << sample;
    EXPECT_EQ(harness::solution_fingerprint(inst, out.solution), baseline_fp)
        << "sample " << sample;

    // Without recovery: the run either survives or fails, but it must do
    // the same thing twice, and any failure must name the first lost
    // message.
    core::MwParams bare = clean_params(4, 11);
    bare.faults = plan;
    const auto run_bare = [&]() -> std::string {
      try {
        const core::MwGreedyOutcome o = core::run_mw_greedy(inst, bare);
        return "ok:" + harness::solution_fingerprint(inst, o.solution);
      } catch (const CheckError& e) {
        return std::string("CheckError: ") + e.what();
      }
    };
    const std::string first = run_bare();
    EXPECT_EQ(first, run_bare()) << "sample " << sample;
    if (first.find("CheckError") != std::string::npos) {
      ++failures_without_recovery;
      EXPECT_NE(first.find("first lost message was"), std::string::npos)
          << first;
      EXPECT_NE(first.find("dropped total"), std::string::npos) << first;
    }
  }
  // At >= 10% i.i.d. drop the unprotected protocol does not get lucky on
  // every sampled plan.
  EXPECT_GT(failures_without_recovery, 0);
}

}  // namespace
}  // namespace dflp
