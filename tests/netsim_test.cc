// Unit tests for the CONGEST simulator: delivery semantics, budget
// enforcement, determinism, metrics, fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "netsim/message.h"
#include "netsim/network.h"
#include "netsim/trace.h"
#include "port_probe.h"

namespace dflp::net {
namespace {

/// Process programmable with small lambdas per round.
class Script final : public Process {
 public:
  using Fn = std::function<void(NodeContext&, std::span<const Message>)>;
  explicit Script(Fn fn) : fn_(std::move(fn)) {}
  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    fn_(ctx, inbox);
  }

 private:
  Fn fn_;
};

/// Installs a no-op halting process everywhere not already set.
void fill_idle(Network& net, const std::vector<NodeId>& skip = {}) {
  for (NodeId v = 0; v < static_cast<NodeId>(net.num_nodes()); ++v) {
    if (std::find(skip.begin(), skip.end(), v) != skip.end()) continue;
    net.set_process(v, std::make_unique<Script>(
                           [](NodeContext& ctx, auto) { ctx.halt(); }));
  }
}

Network::Options opts() {
  Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  return o;
}

TEST(Message, BitsForValue) {
  EXPECT_EQ(bits_for_value(0), 1);
  EXPECT_EQ(bits_for_value(1), 2);   // magnitude + sign
  EXPECT_EQ(bits_for_value(-1), 2);  // sign-magnitude: |-1| needs 1 bit
  EXPECT_EQ(bits_for_value(255), 9);
  EXPECT_EQ(bits_for_value(256), 10);
}

TEST(Message, MinMessageBits) {
  Message m;
  EXPECT_EQ(min_message_bits(m), 8);  // opcode only
  m.field = {255, 0, 0};
  EXPECT_EQ(min_message_bits(m), 17);
}

TEST(Message, BitsForValueExtremes) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Sign-magnitude: INT64_MAX needs 63 magnitude bits + sign; INT64_MIN's
  // magnitude 2^63 needs one more.
  EXPECT_EQ(bits_for_value(kMax), 64);
  EXPECT_EQ(bits_for_value(kMin), 65);
  EXPECT_EQ(bits_for_value(kMin + 1), 64);  // magnitude 2^63 - 1
  // Powers of two straddle a magnitude-bit boundary.
  EXPECT_EQ(bits_for_value((std::int64_t{1} << 62) - 1), 63);
  EXPECT_EQ(bits_for_value(std::int64_t{1} << 62), 64);
  EXPECT_EQ(bits_for_value(-(std::int64_t{1} << 62)), 64);
}

TEST(Message, MinMessageBitsAllZeroFieldsIsOpcodeOnly) {
  // Zero payload words are free: the honest size never drops below the
  // 8-bit opcode, and all-zero fields add nothing on top of it.
  Message m;
  m.field = {0, 0, 0};
  EXPECT_EQ(min_message_bits(m), 8);
  m.kind = 0xFF;  // opcode value does not change the size
  EXPECT_EQ(min_message_bits(m), 8);
  // Extreme payloads still fit the declared-size arithmetic: three
  // INT64_MIN words cost 8 + 3 * 65 bits.
  m.field = {std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(min_message_bits(m), 8 + 3 * 65);
}

TEST(Network, TopologyValidation) {
  Network net(3, opts());
  EXPECT_THROW(net.add_edge(0, 0), CheckError);   // self loop
  EXPECT_THROW(net.add_edge(0, 3), CheckError);   // out of range
  EXPECT_THROW(net.add_edge(-1, 1), CheckError);  // negative
  net.add_edge(0, 1);
  net.add_edge(0, 1);  // duplicate detected at finalize
  EXPECT_THROW(net.finalize(), CheckError);

  // The same edge given in the other orientation is a duplicate too, and
  // the message names both endpoints.
  Network reversed(3, opts());
  reversed.add_edge(0, 1);
  reversed.add_edge(1, 2);
  reversed.add_edge(1, 0);
  try {
    reversed.finalize();
    ADD_FAILURE() << "expected a CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate edge (0,1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Network, NeighborsAreSortedBothDirections) {
  Network net(4, opts());
  net.add_edge(2, 0);
  net.add_edge(2, 3);
  net.add_edge(1, 2);
  net.finalize();
  const auto nbrs = net.neighbors_of(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(net.neighbors_of(0).size(), 1u);
  EXPECT_EQ(net.num_edges(), 3u);

  // A random graph added in shuffled order and orientation: every list
  // must match a sorted reference.
  constexpr std::size_t kNodes = 300;
  Rng rng(0x5EEDULL);
  std::set<std::pair<NodeId, NodeId>> edge_set;
  while (edge_set.size() < 2000) {
    const auto u = static_cast<NodeId>(rng.uniform_u64(kNodes));
    const auto v = static_cast<NodeId>(rng.uniform_u64(kNodes));
    if (u != v) edge_set.insert(std::minmax(u, v));
  }
  std::vector<std::pair<NodeId, NodeId>> edges(edge_set.begin(),
                                               edge_set.end());
  rng.shuffle(edges.begin(), edges.end());
  std::vector<std::vector<NodeId>> reference(kNodes);
  Network random_net(kNodes, opts());
  for (auto [u, v] : edges) {
    if (rng.bernoulli(0.5)) std::swap(u, v);
    random_net.add_edge(u, v);
    reference[static_cast<std::size_t>(u)].push_back(v);
    reference[static_cast<std::size_t>(v)].push_back(u);
  }
  random_net.finalize();
  EXPECT_EQ(random_net.num_edges(), edges.size());
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::sort(reference[i].begin(), reference[i].end());
    const auto nbrs = random_net.neighbors_of(static_cast<NodeId>(i));
    EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), reference[i])
        << "node " << i;
  }
}

TEST(Network, MessageDeliveredNextRoundIntact) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  std::vector<Message> got;
  net.set_process(0, std::make_unique<Script>(
                         [](NodeContext& ctx, auto) {
                           if (ctx.round() == 0)
                             ctx.send(1, /*kind=*/7, {11, -22, 33});
                           ctx.halt();
                         }));
  net.set_process(1, std::make_unique<Script>(
                         [&](NodeContext& ctx, std::span<const Message> in) {
                           for (const auto& m : in) got.push_back(m);
                           if (ctx.round() >= 1) ctx.halt();
                         }));
  net.run(10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].dst, 1);
  EXPECT_EQ(got[0].kind, 7);
  EXPECT_EQ(got[0].field[0], 11);
  EXPECT_EQ(got[0].field[1], -22);
  EXPECT_EQ(got[0].field[2], 33);
}

TEST(Network, SendToNonNeighborThrows) {
  Network net(3, opts());
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(2, 1);  // not a neighbour
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Network, BitBudgetEnforced) {
  auto o = opts();
  o.bit_budget = 16;
  Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(1, 1, {1 << 20, 0, 0});  // ~21 payload bits + opcode > 16
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Network, UnderDeclaredBitsRejectedPaddingAllowed) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.send(1, 1, {255, 0, 0}, /*bits=*/60);  // pad ok
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.max_message_bits, 60);

  Network net2(2, opts());
  net2.add_edge(0, 1);
  net2.finalize();
  net2.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(1, 1, {255, 0, 0}, /*bits=*/10);  // honest size is 17
  }));
  fill_idle(net2, {0});
  EXPECT_THROW(net2.run(2), CheckError);
}

TEST(Network, CongestEdgeAllowanceIsOnePerRound) {
  // One message per directed edge per round. A broadcast uses every link,
  // so it conflicts with any other send of the same step, in either order.
  using Sends = std::function<void(NodeContext&)>;
  const std::vector<std::pair<const char*, Sends>> inputs = {
      {"unicast, unicast",
       [](NodeContext& ctx) {
         ctx.send(1, 1);
         ctx.send(1, 2);
       }},
      {"unicast, broadcast",
       [](NodeContext& ctx) {
         ctx.send(2, 1);
         ctx.broadcast(2);
       }},
      {"broadcast, unicast",
       [](NodeContext& ctx) {
         ctx.broadcast(2);
         ctx.send(2, 1);
       }},
      {"broadcast, broadcast",
       [](NodeContext& ctx) {
         ctx.broadcast(1);
         ctx.broadcast(2);
       }},
      {"frame, frame",
       [](NodeContext& ctx) {
         Message frame;
         frame.src = 0;
         frame.dst = 1;
         frame.has_header = true;
         ctx.send_frame(frame);
         ctx.send_frame(frame);
       }},
  };
  for (const auto& [name, sends] : inputs) {
    Network net(3, opts());
    net.add_edge(0, 1);
    net.add_edge(0, 2);
    net.finalize();
    net.set_process(0, std::make_unique<Script>(
                           [&sends](NodeContext& ctx, auto) { sends(ctx); }));
    fill_idle(net, {0});
    try {
      net.run(2);
      ADD_FAILURE() << name << ": no CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("edge allowance exceeded"), std::string::npos)
          << name << ": " << what;
      EXPECT_TRUE(what.find("on 0->") != std::string::npos ||
                  what.find("from 0 ") != std::string::npos)
          << name << ": " << what;
      EXPECT_NE(what.find("in round 0"), std::string::npos)
          << name << ": " << what;
    }
  }
}

TEST(Network, BroadcastFromIsolatedNodeIsANoOp) {
  // No links, so nothing is sent — and nothing is used up either.
  Network net(3, opts());
  net.add_edge(1, 2);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.broadcast(1);
    ctx.broadcast(2);
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.messages, 0u);
}

TEST(Network, QuiescenceStopsRun) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  fill_idle(net);
  const NetMetrics m = net.run(100);
  EXPECT_EQ(m.rounds, 1u);  // one round to let everyone halt
  EXPECT_TRUE(net.all_halted());
}

TEST(Network, MaxRoundsCapsExecution) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  // Ping-pong forever.
  for (NodeId v : {0, 1}) {
    net.set_process(v, std::make_unique<Script>(
                           [](NodeContext& ctx, auto) {
                             ctx.send(ctx.neighbors()[0], 1);
                           }));
  }
  const NetMetrics m = net.run(25);
  EXPECT_EQ(m.rounds, 25u);
  EXPECT_FALSE(net.all_halted());
}

TEST(Network, MetricsCountMessagesAndBits) {
  Network net(3, opts());
  net.add_edge(0, 1);
  net.add_edge(0, 2);
  net.finalize();
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.broadcast(1, {3, 0, 0});  // 8+3 = 11 bits
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.messages, 2u);
  EXPECT_EQ(m.total_bits, 22u);
  EXPECT_EQ(m.max_message_bits, 11);
  EXPECT_EQ(m.max_messages_in_round, 2u);
}

TEST(Network, DeliveryOrderBySource) {
  auto run_with = [](DeliveryOrder order) {
    auto o = opts();
    o.delivery = order;
    Network net(4, o);
    net.add_edge(3, 0);
    net.add_edge(3, 1);
    net.add_edge(3, 2);
    net.finalize();
    for (NodeId v : {0, 1, 2}) {
      net.set_process(v, std::make_unique<Script>(
                             [](NodeContext& ctx, auto) {
                               if (ctx.round() == 0) ctx.send(3, 1);
                               ctx.halt();
                             }));
    }
    std::vector<NodeId> sources;
    net.set_process(3, std::make_unique<Script>(
                           [&sources](NodeContext& ctx,
                                      std::span<const Message> in) {
                             for (const auto& m : in)
                               sources.push_back(m.src);
                             if (ctx.round() >= 1) ctx.halt();
                           }));
    net.run(5);
    return sources;
  };
  EXPECT_EQ(run_with(DeliveryOrder::kBySource),
            (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(run_with(DeliveryOrder::kReverseSource),
            (std::vector<NodeId>{2, 1, 0}));
  // Random shuffle: deterministic per seed; must be a permutation.
  auto shuffled = run_with(DeliveryOrder::kRandomShuffle);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Network, PerNodeRngIsDeterministicAcrossRuns) {
  auto draw = []() {
    Network net(2, opts());
    net.add_edge(0, 1);
    net.finalize();
    std::uint64_t value = 0;
    net.set_process(0, std::make_unique<Script>(
                           [&value](NodeContext& ctx, auto) {
                             value = ctx.rng()();
                             ctx.halt();
                           }));
    fill_idle(net, {0});
    net.run(3);
    return value;
  };
  EXPECT_EQ(draw(), draw());
}

TEST(Network, DropProbabilityOneDropsEverything) {
  auto o = opts();
  o.faults.drop_probability = 1.0;
  Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();
  std::size_t received = 0;
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.send(1, 1);
    ctx.halt();
  }));
  net.set_process(1, std::make_unique<Script>(
                         [&received](NodeContext& ctx,
                                     std::span<const Message> in) {
                           received += in.size();
                           if (ctx.round() >= 2) ctx.halt();
                         }));
  const NetMetrics m = net.run(10);
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(m.messages, 0u);
  EXPECT_EQ(m.dropped, 1u);
}

TEST(Network, FramesKeepTheirHeadersBesidePlainTraffic) {
  // Frames and plain messages staged in one round: node 0 sends plain,
  // frame, plain, frame to its four neighbours, and node 5 a frame, then a
  // plain message. The log then holds unframed records before, between
  // and after the frames, and every delivered copy (a duplicated one
  // included) must carry exactly its own staged header, or none.
  const auto is_frame = [](NodeId s, NodeId d) {
    return (s == 0 && (d == 2 || d == 4)) || (s == 5 && d == 1);
  };
  const auto header_of = [](NodeId s, NodeId d) {
    TransportHeader h;
    h.seq = 10 * s + d + 1;
    h.ack = 20 + 10 * s + d;
    h.tag = 40 + 10 * s + d;
    h.flags = static_cast<std::uint8_t>((s + d) % 7 + 1);
    return h;
  };
  const auto sender = [&](std::vector<NodeId> dsts) {
    return std::make_unique<Script>(
        [&, dsts](NodeContext& ctx, auto) {
          if (ctx.round() == 0) {
            for (const NodeId d : dsts) {
              const std::array<std::int64_t, 3> fields{1000 * ctx.self() + d,
                                                       0, 0};
              if (!is_frame(ctx.self(), d)) {
                ctx.send(d, 3, fields);
                continue;
              }
              Message frame;
              frame.src = ctx.self();
              frame.dst = d;
              frame.kind = 5;
              frame.field = fields;
              frame.has_header = true;
              frame.hdr = header_of(ctx.self(), d);
              ctx.send_frame(frame);
            }
          }
          ctx.halt();
        });
  };

  FaultPlan::Options lossy;
  lossy.drop_probability = 0.3;
  lossy.duplicate_probability = 0.5;
  std::uint64_t delivered = 0, dropped = 0, duplicated = 0;
  for (const DeliveryOrder order :
       {DeliveryOrder::kBySource, DeliveryOrder::kRandomShuffle,
        DeliveryOrder::kReverseSource}) {
    for (std::uint64_t seed = 1; seed <= 9; ++seed) {
      // Seed 1 runs fault-free; the others under drop and duplication.
      Network::Options o = opts();
      o.bit_budget = 128;
      o.delivery = order;
      o.seed = seed;
      if (seed > 1) o.faults = lossy;
      Network net(6, o);
      for (const NodeId d : {1, 2, 3, 4}) net.add_edge(0, d);
      for (const NodeId d : {1, 2}) net.add_edge(5, d);
      net.finalize();
      net.set_process(0, sender({1, 2, 3, 4}));
      net.set_process(5, sender({1, 2}));
      for (const NodeId v : {1, 2, 3, 4}) {
        net.set_process(v, std::make_unique<Script>([&](NodeContext& ctx,
                                                         std::span<const Message>
                                                             in) {
          for (const Message& m : in) {
            ++delivered;
            const std::string where = "seed " + std::to_string(seed) +
                                      ", order " +
                                      std::to_string(static_cast<int>(order)) +
                                      ", " + std::to_string(m.src) + "->" +
                                      std::to_string(ctx.self());
            EXPECT_EQ(m.field[0], 1000 * m.src + ctx.self()) << where;
            if (!is_frame(m.src, ctx.self())) {
              EXPECT_FALSE(m.has_header) << where;
              EXPECT_EQ(m.kind, 3) << where;
              continue;
            }
            const TransportHeader want = header_of(m.src, ctx.self());
            EXPECT_TRUE(m.has_header) << where;
            EXPECT_EQ(m.kind, 5) << where;
            EXPECT_EQ(m.hdr.seq, want.seq) << where;
            EXPECT_EQ(m.hdr.ack, want.ack) << where;
            EXPECT_EQ(m.hdr.tag, want.tag) << where;
            EXPECT_EQ(m.hdr.flags, want.flags) << where;
          }
          if (ctx.round() >= 1) ctx.halt();
        }));
      }
      const NetMetrics m = net.run(10);
      EXPECT_TRUE(net.all_halted());
      if (seed == 1) {
        EXPECT_EQ(m.messages, 6u);
      }
      dropped += m.dropped;
      duplicated += m.duplicated;
    }
  }
  // The hazard runs exercised both fates.
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);
}

TEST(Network, ResumedRunAccumulatesCumulativeMetrics) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  int hops = 0;
  for (NodeId v : {0, 1}) {
    net.set_process(v, std::make_unique<Script>(
                           [&hops, v](NodeContext& ctx,
                                      std::span<const Message> in) {
                             if (v == 0 && ctx.round() == 0) ctx.send(1, 1);
                             for (const auto& m : in) {
                               (void)m;
                               ++hops;
                               if (hops < 6) ctx.send(ctx.neighbors()[0], 1);
                             }
                           }));
  }
  const NetMetrics first = net.run(3);
  const NetMetrics second = net.run(3);
  EXPECT_EQ(net.cumulative_metrics().rounds, first.rounds + second.rounds);
  EXPECT_EQ(net.cumulative_metrics().messages,
            first.messages + second.messages);
}

TEST(Network, CongestBudgetGrowsLogarithmically) {
  const int small = congest_bit_budget(16);
  const int large = congest_bit_budget(1 << 20);
  EXPECT_GT(large, small);
  EXPECT_LT(large, 4 * small);  // log growth, not linear
  EXPECT_GE(small, 16);
}

TEST(Network, CongestBudgetMonotoneInNetworkSize) {
  // The canonical budget must never shrink as the network grows — a
  // protocol tuned on a small instance stays legal on a larger one.
  int prev = congest_bit_budget(1);
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{1000},
                        std::size_t{1} << 16, std::size_t{1} << 20,
                        std::size_t{1} << 30}) {
    const int budget = congest_bit_budget(n);
    EXPECT_GE(budget, prev) << "budget shrank at n=" << n;
    // Any node id fits in a single payload word under the budget.
    Message probe;
    probe.field = {static_cast<std::int64_t>(n - 1), 0, 0};
    EXPECT_LE(min_message_bits(probe), budget) << "n=" << n;
    prev = budget;
  }
}

TEST(Network, HaltedNodeInboxDiscardedAndNotStepped) {
  Network net(2, opts());
  net.add_edge(0, 1);
  net.finalize();
  int steps_after_halt = 0;
  net.set_process(0, std::make_unique<Script>(
                         [&](NodeContext& ctx, auto) {
                           if (ctx.round() > 0) ++steps_after_halt;
                           ctx.halt();
                         }));
  net.set_process(1, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() < 3) ctx.send(0, 1);  // keep sending to the halted node
    else ctx.halt();
  }));
  net.run(10);
  EXPECT_EQ(steps_after_halt, 0);
}

// Resume contract (network.h "Resume semantics"): run() always returns at a
// round boundary with every staged send committed, so splitting an
// execution across multiple run() calls is invisible to the protocol —
// even when shuffles, drops and node coins span the split point, because
// every random stream is a function of (seed, node, round), never of how
// the rounds were batched into run() calls.
TEST(Network, SplitRunBitIdenticalToSingleRun) {
  const auto run_split =
      [](const std::vector<std::uint64_t>& chunks) -> std::string {
    Network::Options o;
    o.bit_budget = 64;
    o.seed = 42;
    o.delivery = DeliveryOrder::kRandomShuffle;
    o.faults.drop_probability = 0.25;
    constexpr NodeId kN = 6;
    Network net(kN, o);
    for (NodeId v = 0; v < kN; ++v) net.add_edge(v, (v + 1) % kN);
    net.finalize();
    auto log = std::make_shared<std::ostringstream>();
    for (NodeId v = 0; v < kN; ++v) {
      net.set_process(
          v, std::make_unique<Script>(
                 [log, v](NodeContext& ctx, std::span<const Message> in) {
                   *log << v << '@' << ctx.round() << ':';
                   for (const Message& m : in) *log << m.src << ',';
                   if (ctx.round() >= 14) {
                     ctx.halt();
                     return;
                   }
                   // Coin-flip target and payload: pins the per-node coin
                   // streams across the split as well.
                   const auto& nbrs = ctx.neighbors();
                   const std::size_t pick = ctx.rng().bernoulli(0.5) ? 1 : 0;
                   const auto payload = static_cast<std::int64_t>(
                       ctx.rng().uniform_u64(128));
                   ctx.send(nbrs[pick], 1, {payload, 0, 0});
                 }));
    }
    NetMetrics total;
    for (std::uint64_t c : chunks) {
      const NetMetrics part = net.run(c);
      total.rounds += part.rounds;
      total.messages += part.messages;
      total.total_bits += part.total_bits;
      total.dropped += part.dropped;
    }
    std::ostringstream os;
    os << log->str() << " | " << total.rounds << '/' << total.messages << '/'
       << total.total_bits << '/' << total.dropped;
    return os.str();
  };

  const std::string whole = run_split({100});
  EXPECT_EQ(run_split({4, 100}), whole);
  EXPECT_EQ(run_split({1, 1, 1, 100}), whole);
  EXPECT_EQ(run_split({7, 2, 100}), whole);
}

// Commit-cost contract (network.h): each round the transport does work
// proportional to the live nodes plus the destinations that actually
// received traffic — never to the total node count. On a star where every
// leaf halts immediately, 50 further hub-only rounds must cost ~2 touches
// per round, not ~N.
TEST(Network, MostlyHaltedNetworkCommitsInLivePlusMessageWork) {
  constexpr NodeId kLeaves = 999;
  Network net(kLeaves + 1, opts());
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) net.add_edge(0, leaf);
  net.finalize();
  net.set_process(0, std::make_unique<Script>(
                         [](NodeContext& ctx, auto) {
                           if (ctx.round() >= 50) {
                             ctx.halt();
                             return;
                           }
                           // Keep one destination warm so the message term
                           // of the bound is exercised too.
                           ctx.send(1, /*kind=*/1);
                         }));
  fill_idle(net, {0});

  EXPECT_FALSE(net.all_halted());
  const NetMetrics m = net.run(1000);

  EXPECT_EQ(m.rounds, 51u);  // 50 hub rounds + the round every leaf halted
  EXPECT_TRUE(net.all_halted());
  EXPECT_EQ(net.live_node_count(), 0u);
  EXPECT_EQ(net.inflight_messages(), 0u);
  // Round 0 tallies all 1000 live nodes; afterwards each round touches the
  // hub plus the single warm destination. A transport that scanned every
  // node per round would register >= 51000 touches.
  EXPECT_GE(net.transport_touches(), 1000u);
  EXPECT_LE(net.transport_touches(), 1500u);
  // Quiescence is observable without re-running: a further run() exits at
  // the first round boundary.
  EXPECT_EQ(net.run(10).rounds, 0u);
}

TEST(Network, MetricsToStringMentionsCounts) {
  NetMetrics m;
  m.rounds = 3;
  m.messages = 14;
  const std::string s = m.to_string();
  EXPECT_NE(s.find("rounds=3"), std::string::npos);
  EXPECT_NE(s.find("messages=14"), std::string::npos);
}

TEST(Network, PortNamesTheSenderOnEveryDelivery) {
  // Unicasts and broadcasts on a random graph, under every delivery order,
  // fault-free, with duplication (both copies carry the port) and with
  // i.i.d. drop.
  expect_ports_hold(Topology::kExplicit, 40);
}

TEST(Network, BuildSortedAdjacencyReversePositions) {
  const Adjacency a = build_sorted_adjacency(
      5, {{3, 1}, {0, 4}, {1, 0}, {4, 3}, {2, 4}, {1, 4}});
  ASSERT_EQ(a.offset, (std::vector<std::int32_t>{0, 2, 5, 6, 8, 12}));
  EXPECT_EQ(a.adj, (std::vector<NodeId>{1, 4, 0, 3, 4, 4, 1, 4, 0, 1, 2, 3}));
  for (std::size_t u = 0; u < 5; ++u) {
    for (auto e = static_cast<std::size_t>(a.offset[u]);
         e < static_cast<std::size_t>(a.offset[u + 1]); ++e) {
      const auto v = static_cast<std::size_t>(a.adj[e]);
      EXPECT_EQ(a.adj[static_cast<std::size_t>(a.offset[v] + a.rev[e])],
                static_cast<NodeId>(u));
    }
  }
}

TEST(Network, PrebuiltAdjacencyIsCheckedAndUsed) {
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}, {0, 2}};
  const auto prebuilt = [&] { return build_sorted_adjacency(3, edges); };
  {
    Network net(3, opts());
    net.finalize(prebuilt());
    EXPECT_EQ(net.num_edges(), 3u);
    const std::span<const NodeId> n1 = net.neighbors_of(1);
    EXPECT_EQ(std::vector<NodeId>(n1.begin(), n1.end()),
              (std::vector<NodeId>{0, 2}));
  }
  Adjacency bad_rev = prebuilt();
  bad_rev.rev[0] = 1;  // node 0 is at position 0 of node 1's list {0, 2}
  Network a(3, opts());
  EXPECT_THROW(a.finalize(std::move(bad_rev)), CheckError);
  Adjacency unsorted = prebuilt();
  std::swap(unsorted.adj[0], unsorted.adj[1]);
  Network b(3, opts());
  EXPECT_THROW(b.finalize(std::move(unsorted)), CheckError);
  Network c(4, opts());
  EXPECT_THROW(c.finalize(prebuilt()), CheckError);  // wrong node count
}

TEST(Network, RestartRunsLikeAFreshNetwork) {
  // Stage rerun: a second execution on the same topology under new
  // options (seed, faults, budget) equals a fresh network's.
  const auto probe_all = [](Network& net) {
    for (std::size_t v = 0; v < net.num_nodes(); ++v)
      net.set_process(static_cast<NodeId>(v), std::make_unique<PortProbe>(6));
  };
  const auto totals = [](const Network& net) {
    return sum_probes(net.num_nodes(), [&](NodeId v) -> const PortProbe& {
      return static_cast<const PortProbe&>(net.process(v));
    });
  };
  Network::Options second = opts();
  second.seed = 99;
  second.bit_budget = 72;
  second.faults.drop_probability = 0.1;
  const auto edges = probe_graph(30, 0.2, 5);

  Network fresh(30, second);
  for (const auto& [u, v] : edges) fresh.add_edge(u, v);
  fresh.finalize();
  probe_all(fresh);
  const NetMetrics want = fresh.run(20);

  Network rerun(30, opts());
  for (const auto& [u, v] : edges) rerun.add_edge(u, v);
  rerun.finalize();
  probe_all(rerun);
  (void)rerun.run(3);  // cut short: messages left in flight
  rerun.restart(second);
  EXPECT_EQ(rerun.live_node_count(), 30u);
  EXPECT_EQ(rerun.inflight_messages(), 0u);
  probe_all(rerun);
  const NetMetrics got = rerun.run(20);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.total_bits, want.total_bits);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(rerun.cumulative_metrics().messages, want.messages);
  EXPECT_EQ(totals(rerun).deliveries, totals(fresh).deliveries);
  EXPECT_EQ(totals(rerun).bad_ports, 0u);

  Network::Options clique = second;
  clique.topology = Topology::kClique;
  EXPECT_THROW(rerun.restart(clique), CheckError);
}

/// A probe that throws CheckError in round `throw_round`, after its sends.
class ThrowingProbe final : public Process {
 public:
  explicit ThrowingProbe(std::uint64_t throw_round)
      : probe_(6), throw_round_(throw_round) {}
  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    probe_.on_round(ctx, inbox);
    DFLP_CHECK_MSG(ctx.round() != throw_round_,
                   "node " << ctx.self() << " fails after sending");
  }

 private:
  PortProbe probe_;
  std::uint64_t throw_round_;
};

TEST(Network, RestartAfterAThrowingStepRunsLikeAFreshNetwork) {
  // A step that throws leaves its round half staged: the nodes stepped
  // before it, and the thrower itself, have sent. restart() must discard
  // all of it, so the next execution equals a fresh network's.
  const auto edges = probe_graph(30, 0.2, 5);
  const auto build = [&] {
    auto net = std::make_unique<Network>(30, opts());
    for (const auto& [u, v] : edges) net->add_edge(u, v);
    net->finalize();
    return net;
  };
  const auto probe_all = [](Network& net) {
    for (std::size_t v = 0; v < net.num_nodes(); ++v)
      net.set_process(static_cast<NodeId>(v), std::make_unique<PortProbe>(6));
  };
  const auto totals = [](const Network& net) {
    return sum_probes(net.num_nodes(), [&](NodeId v) -> const PortProbe& {
      return static_cast<const PortProbe&>(net.process(v));
    });
  };

  const std::unique_ptr<Network> fresh = build();
  probe_all(*fresh);
  const NetMetrics want = fresh->run(20);

  const std::unique_ptr<Network> rerun = build();
  for (std::size_t v = 0; v < rerun->num_nodes(); ++v) {
    std::unique_ptr<Process> p = std::make_unique<PortProbe>(6);
    if (v == 17) p = std::make_unique<ThrowingProbe>(/*throw_round=*/2);
    rerun->set_process(static_cast<NodeId>(v), std::move(p));
  }
  EXPECT_THROW((void)rerun->run(20), CheckError);
  rerun->restart(opts());
  probe_all(*rerun);
  const NetMetrics got = rerun->run(20);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.total_bits, want.total_bits);
  EXPECT_EQ(got.max_message_bits, want.max_message_bits);
  EXPECT_EQ(got.max_messages_in_round, want.max_messages_in_round);
  EXPECT_EQ(rerun->cumulative_metrics().messages, want.messages);
  EXPECT_EQ(totals(*rerun).deliveries, totals(*fresh).deliveries);
  EXPECT_EQ(totals(*rerun).bad_ports, 0u);
}

// ---------------------------------------------------------------------------
// Sleeping nodes and skipped rounds (network.h). A node that calls
// NodeContext::sleep_until(w) may be passed over until round w unless mail
// arrives, and rounds in which every live node sleeps and nothing is in
// flight are skipped but still counted.

/// Records "node@round:inbox-size" for every step into a shared log.
struct StepLog {
  std::ostringstream os;
  void step(NodeContext& ctx, std::span<const Message> in) {
    os << ctx.self() << '@' << ctx.round() << ':' << in.size() << ' ';
  }
};

/// Path 0 - 1 - 2, every node running `fn`.
std::unique_ptr<Network> path3(
    Network::Options o,
    const std::function<void(NodeContext&, std::span<const Message>)>& fn) {
  auto net = std::make_unique<Network>(3, o);
  net->add_edge(0, 1);
  net->add_edge(1, 2);
  net->finalize();
  for (NodeId v = 0; v < 3; ++v)
    net->set_process(v, std::make_unique<Script>(fn));
  return net;
}

TEST(Network, SleepingNodeIsNotSteppedBeforeItsWakeRoundAndDrawsNothing) {
  // Node 0 draws a coin in every step it takes and sleeps from round 0 to
  // round 5; node 1 stays awake until round 8, so no round is skipped and
  // node 0 alone is passed over. Its second draw must be the stream's
  // second value: the skipped steps drew nothing.
  auto log = std::make_shared<StepLog>();
  std::vector<std::uint64_t> draws;
  auto net = path3(opts(), [&](NodeContext& ctx, std::span<const Message> in) {
    log->step(ctx, in);
    if (ctx.self() == 0) {
      draws.push_back(ctx.rng()());
      if (ctx.round() == 0) {
        ctx.sleep_until(5);
      } else {
        ctx.halt();
      }
    } else if (ctx.self() == 2 || ctx.round() == 8) {
      ctx.halt();
    }
  });
  const NetMetrics m = net->run(100);
  EXPECT_EQ(m.rounds, 9u);
  EXPECT_EQ(log->os.str(),
            "0@0:0 1@0:0 2@0:0 1@1:0 1@2:0 1@3:0 1@4:0 0@5:0 1@5:0 1@6:0 "
            "1@7:0 1@8:0 ");
  Rng reference = Rng(1).split(0);
  ASSERT_EQ(draws.size(), 2u);
  EXPECT_EQ(draws[0], reference());
  EXPECT_EQ(draws[1], reference());
}

TEST(Network, MessageWakesSleeperInTheRoundItLands) {
  auto log = std::make_shared<StepLog>();
  auto net = path3(opts(), [&](NodeContext& ctx, std::span<const Message> in) {
    log->step(ctx, in);
    if (ctx.self() == 1 && ctx.round() == 3) {
      ctx.send(0, /*kind=*/1);
      ctx.halt();
    } else if (ctx.self() == 0 && !in.empty()) {
      ctx.halt();
    } else if (ctx.self() == 0) {
      ctx.sleep_until(100);
    } else if (ctx.self() == 2) {
      ctx.halt();
    }
  });
  const NetMetrics m = net->run(1000);
  // Woken at round 4 by the message sent in round 3, not at round 100.
  EXPECT_EQ(log->os.str(),
            "0@0:0 1@0:0 2@0:0 1@1:0 1@2:0 1@3:0 0@4:1 ");
  EXPECT_EQ(m.rounds, 5u);
  EXPECT_TRUE(net->all_halted());
}

TEST(Network, HaltInTheSameStepWinsOverSleep) {
  for (const bool halt_first : {false, true}) {
    auto net = path3(opts(), [&](NodeContext& ctx, auto) {
      if (halt_first) ctx.halt();
      ctx.sleep_until(50);
      if (!halt_first) ctx.halt();
    });
    const NetMetrics m = net->run(1000);
    // Every node halted in round 0: no sleeper is left to skip towards
    // round 50, so the run ends after its single round.
    EXPECT_EQ(m.rounds, 1u) << "halt_first = " << halt_first;
    EXPECT_TRUE(net->all_halted());
    EXPECT_EQ(net->live_node_count(), 0u);
  }
}

/// Every node sleeps from round 0 to its own wake round (node 0: 7, node 1:
/// 12, node 2: 9), steps there and halts.
std::unique_ptr<Network> staggered_sleepers(Network::Options o,
                                            std::shared_ptr<StepLog> log) {
  return path3(o, [log](NodeContext& ctx, std::span<const Message> in) {
    log->step(ctx, in);
    constexpr std::uint64_t kWake[] = {7, 12, 9};
    if (ctx.round() == 0) {
      ctx.sleep_until(kWake[ctx.self()]);
    } else {
      ctx.halt();
    }
  });
}

TEST(Network, AllAsleepSkipsToTheEarliestWakeRoundAndCountsSkippedRounds) {
  Network::Options o = opts();
  Tracer tracer;
  o.tracer = &tracer;
  auto log = std::make_shared<StepLog>();
  auto net = staggered_sleepers(o, log);
  const NetMetrics m = net->run(1000);
  EXPECT_EQ(log->os.str(), "0@0:0 1@0:0 2@0:0 0@7:0 2@9:0 1@12:0 ");
  EXPECT_EQ(m.rounds, 13u);  // rounds 0..12, ten of them skipped
  EXPECT_TRUE(net->all_halted());
  // Only the stepped rounds 0, 7, 9 and 12 did transport work, one touch
  // per live node.
  EXPECT_EQ(net->transport_touches(), 3u + 3u + 2u + 1u);

  // One record per round, skipped ones included, with sleepers still live.
  // The stepped rounds send nothing, so they push; none pulls.
  ASSERT_EQ(tracer.rounds().size(), 13u);
  const std::uint64_t live[] = {3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1};
  std::uint64_t pull_records = 0;
  for (std::uint64_t r = 0; r < 13; ++r) {
    const TraceRound& rec = tracer.rounds()[r];
    EXPECT_EQ(rec.round, r);
    EXPECT_EQ(rec.live, live[r]) << "round " << r;
    const bool stepped = r == 0 || r == 7 || r == 9 || r == 12;
    EXPECT_EQ(rec.path, stepped ? TracePath::kPush : TracePath::kSkip)
        << "round " << r;
    pull_records += rec.path == TracePath::kPull ? 1 : 0;
    if (!stepped) {
      EXPECT_EQ(rec.sent + rec.delivered + rec.halted + rec.crashed, 0u);
      EXPECT_EQ(rec.step_s + rec.commit_s + rec.scatter_s, 0.0);
    }
  }
  EXPECT_EQ(pull_records, net->pulled_rounds());
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::string why;
  EXPECT_TRUE(validate_trace_jsonl(in, &why)) << why;
}

TEST(Network, MaxRoundsInsideASkipResumesAtTheRightRound) {
  const auto run_split =
      [](const std::vector<std::uint64_t>& chunks) -> std::string {
    auto log = std::make_shared<StepLog>();
    auto net = staggered_sleepers(opts(), log);
    std::ostringstream os;
    for (const std::uint64_t c : chunks) os << net->run(c).rounds << ',';
    os << " | " << net->cumulative_metrics().rounds << " | " << log->os.str();
    return os.str();
  };
  const std::string steps = "0@0:0 1@0:0 2@0:0 0@7:0 2@9:0 1@12:0 ";
  EXPECT_EQ(run_split({100}), "13, | 13 | " + steps);
  // Cut inside the first skip (rounds 1-6) and inside the last (10-11).
  EXPECT_EQ(run_split({4, 7, 100}), "4,7,2, | 13 | " + steps);
  EXPECT_EQ(run_split({1, 1, 1, 1, 1, 1, 1, 1, 100}),
            "1,1,1,1,1,1,1,1,5, | 13 | " + steps);
}

TEST(Network, CrashScheduledInsideASkipIsAppliedAtItsRound) {
  Network::Options o = opts();
  o.faults.crashes = {{/*node=*/1, /*round=*/5}};
  Tracer tracer;
  o.tracer = &tracer;
  auto log = std::make_shared<StepLog>();
  auto net = staggered_sleepers(o, log);
  EXPECT_EQ(net->run(5).rounds, 5u);  // rounds 0-4: the crash is still due
  EXPECT_FALSE(net->halted(1));
  EXPECT_EQ(net->run(1).crashed, 1u);  // round 5 applies it
  EXPECT_TRUE(net->halted(1));
  const NetMetrics rest = net->run(1000);
  // Node 1 never wakes at 12: the run ends after node 2 halts in round 9.
  EXPECT_EQ(log->os.str(), "0@0:0 1@0:0 2@0:0 0@7:0 2@9:0 ");
  EXPECT_EQ(net->cumulative_metrics().rounds, 10u);
  EXPECT_EQ(rest.rounds, 4u);
  ASSERT_EQ(tracer.rounds().size(), 10u);
  EXPECT_EQ(tracer.rounds()[5].crashed, 1u);
  EXPECT_EQ(tracer.rounds()[5].live, 2u);
}

/// Seeded gossip over a chorded ring in which every node idles a random
/// number of rounds between steps: it keeps its own wake round and returns
/// from earlier steps without mail, which are therefore the no-op steps
/// the hint covers. With `use_hint` it also calls sleep_until, so the
/// engine skips those steps; both variants must produce the same
/// execution.
class Dozer final : public Process {
 public:
  Dozer(std::shared_ptr<std::ostringstream> log, bool use_hint)
      : log_(std::move(log)), use_hint_(use_hint) {}

  void on_round(NodeContext& ctx, std::span<const Message> in) override {
    if (in.empty() && ctx.round() < wake_) return;
    *log_ << ctx.self() << '@' << ctx.round() << ':';
    for (const Message& m : in) *log_ << m.src << '/' << m.field[0] << ',';
    *log_ << ' ';
    if (ctx.round() >= 60) {
      ctx.halt();
      return;
    }
    if (ctx.rng().bernoulli(0.3)) {
      const auto nbrs = ctx.neighbors();
      ctx.send(nbrs[ctx.rng().uniform_u64(nbrs.size())], 1,
               {static_cast<std::int64_t>(ctx.rng().uniform_u64(100)), 0, 0});
    }
    wake_ = ctx.round() + 1 + ctx.rng().uniform_u64(12);
    if (use_hint_) ctx.sleep_until(wake_);
  }

 private:
  std::shared_ptr<std::ostringstream> log_;
  bool use_hint_;
  std::uint64_t wake_ = 0;
};

std::string dozer_run(bool use_hint, DeliveryOrder delivery) {
  constexpr NodeId kN = 40;
  Network::Options o = opts();
  o.seed = 17;
  o.delivery = delivery;
  o.faults.drop_probability = 0.1;
  o.faults.crashes = {{3, 9}, {11, 30}};
  Network net(kN, o);
  for (NodeId v = 0; v < kN; ++v) {
    net.add_edge(v, (v + 1) % kN);
    net.add_edge(v, (v + 7) % kN);
  }
  net.finalize();
  std::vector<std::shared_ptr<std::ostringstream>> logs;
  for (NodeId v = 0; v < kN; ++v) {
    logs.push_back(std::make_shared<std::ostringstream>());
    net.set_process(v, std::make_unique<Dozer>(logs.back(), use_hint));
  }
  const NetMetrics m = net.run(1000);
  std::ostringstream os;
  os << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.dropped << '/' << m.crashed << " |";
  for (const auto& log : logs) os << ' ' << log->str();
  return os.str();
}

TEST(Network, SleepingRunsAreBitIdenticalToNoOpSteps) {
  for (const DeliveryOrder delivery :
       {DeliveryOrder::kBySource, DeliveryOrder::kRandomShuffle}) {
    EXPECT_EQ(dozer_run(/*use_hint=*/true, delivery),
              dozer_run(/*use_hint=*/false, delivery));
  }
}

// ---------------------------------------------------------------------------
// Pull rounds (network.h). A fault-free round on an explicit topology in
// which every staged record is a broadcast, and whose touched receivers'
// degrees sum to at most twice its copies, is delivered by the receivers
// reading their neighbours' records instead of by the slot scatter. Every
// case checks the inboxes against ones computed from the adjacency, and
// pulled_rounds() tells which path ran.

/// One delivered message as its receiver saw it.
struct Seen {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::int32_t port = -1;
  std::uint8_t kind = 0;
  std::array<std::int64_t, 3> field{};
  int bits = 0;
  bool has_header = false;
  friend bool operator==(const Seen&, const Seen&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Seen& m) {
    return os << m.src << "->" << m.dst << " port " << m.port << " kind "
              << static_cast<int>(m.kind) << " (" << m.field[0] << ','
              << m.field[1] << ',' << m.field[2] << ") " << m.bits << "b"
              << (m.has_header ? " framed" : "");
  }
};

/// Every inbox of a run, keyed by (receiver, round).
using Inboxes = std::map<std::pair<NodeId, std::uint64_t>, std::vector<Seen>>;

/// Records `in` as the inbox of (ctx.self(), ctx.round()).
void record(Inboxes& inboxes, const NodeContext& ctx,
            std::span<const Message> in) {
  std::vector<Seen>& got = inboxes[{ctx.self(), ctx.round()}];
  for (const Message& m : in)
    got.push_back({m.src, m.dst, m.port, m.kind, m.field, m.bits,
                   m.has_header});
}

/// What node `v` sends in round `r`: kind, payload and declared bits all
/// vary with (v, r), so a copy read from the wrong record shows.
Seen payload(NodeId v, std::uint64_t r) {
  Seen m;
  m.src = v;
  m.kind = static_cast<std::uint8_t>(1 + (v + static_cast<NodeId>(r)) % 5);
  m.field = {v, static_cast<std::int64_t>(r),
             7 * v + static_cast<std::int64_t>(r)};
  m.bits = 40 + (v + static_cast<int>(r)) % 8;
  return m;
}

/// The inbox `v` must get in round `r` when every node u for which
/// `sent(u)` holds sent payload(u, r - 1) to it: one copy per such
/// neighbour, in ascending source order, with the sender's position in
/// v's adjacency as the port.
std::vector<Seen> want_inbox(const Network& net, NodeId v, std::uint64_t r,
                             const std::function<bool(NodeId)>& sent) {
  std::vector<Seen> want;
  const std::span<const NodeId> nbrs = net.neighbors_of(v);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (!sent(nbrs[k])) continue;
    Seen m = payload(nbrs[k], r - 1);
    m.dst = v;
    m.port = static_cast<std::int32_t>(k);
    want.push_back(m);
  }
  // The clique's rotation is not ascending; the sources are distinct.
  std::sort(want.begin(), want.end(),
            [](const Seen& a, const Seen& b) { return a.src < b.src; });
  return want;
}

/// Whether node v broadcasts in round r.
using Speaks = std::function<bool(NodeId, std::uint64_t)>;

/// A step that records its inbox, broadcasts payload(v, r) in each round
/// r < `rounds` for which `speaks(v, r)` holds, and halts in round
/// `rounds`.
Script::Fn pull_probe(std::shared_ptr<Inboxes> inboxes, Speaks speaks,
                      std::uint64_t rounds) {
  return [inboxes, speaks, rounds](NodeContext& ctx,
                                   std::span<const Message> in) {
    record(*inboxes, ctx, in);
    if (ctx.round() >= rounds) {
      ctx.halt();
    } else if (speaks(ctx.self(), ctx.round())) {
      const Seen m = payload(ctx.self(), ctx.round());
      ctx.broadcast(m.kind, m.field, m.bits);
    }
  };
}

/// A seeded bipartite graph: kLeft nodes 0.., kRight nodes after them,
/// each left/right pair joined with probability 1/5, plus a spanning set
/// of edges so every node has a neighbour.
constexpr NodeId kLeft = 24;
constexpr NodeId kRight = 40;
std::vector<std::pair<NodeId, NodeId>> bipartite_edges() {
  std::set<std::pair<NodeId, NodeId>> edges;
  Rng rng(0xB1BA57EULL);
  for (NodeId l = 0; l < kLeft; ++l) {
    for (NodeId r = kLeft; r < kLeft + kRight; ++r)
      if (rng.bernoulli(0.2)) edges.insert({l, r});
  }
  for (NodeId r = 0; r < kRight; ++r) edges.insert({r % kLeft, kLeft + r});
  return {edges.begin(), edges.end()};
}

/// The bipartite graph, every node running `fn`.
std::unique_ptr<Network> bipartite_net(Network::Options o,
                                       const Script::Fn& fn) {
  auto net = std::make_unique<Network>(kLeft + kRight, o);
  for (const auto& [u, v] : bipartite_edges()) net->add_edge(u, v);
  net->finalize();
  for (NodeId v = 0; v < kLeft + kRight; ++v)
    net->set_process(v, std::make_unique<Script>(fn));
  return net;
}

/// Whether the engine's gate admits a round of broadcasts from the nodes
/// for which `sent` holds: the touched receivers' degrees sum to at most
/// twice the copies.
bool gate_admits(const Network& net, const std::function<bool(NodeId)>& sent) {
  std::uint64_t copies = 0, walk = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(net.num_nodes()); ++v) {
    const std::span<const NodeId> nbrs = net.neighbors_of(v);
    if (sent(v)) copies += nbrs.size();
    if (std::any_of(nbrs.begin(), nbrs.end(), sent)) walk += nbrs.size();
  }
  return copies > 0 && walk <= 2 * copies;
}

/// Two thirds of the nodes broadcast in each round, a different two
/// thirds every round.
bool two_thirds(NodeId v, std::uint64_t r) {
  return (static_cast<std::uint64_t>(v) + r) % 3 != 0;
}

TEST(Network, PullRoundsDeliverEachReceiversBroadcastingNeighbours) {
  constexpr std::uint64_t kRounds = 6;
  for (const DeliveryOrder order :
       {DeliveryOrder::kBySource, DeliveryOrder::kReverseSource,
        DeliveryOrder::kRandomShuffle}) {
    Network::Options o = opts();
    o.delivery = order;
    auto inboxes = std::make_shared<Inboxes>();
    auto net = bipartite_net(o, pull_probe(inboxes, two_thirds, kRounds));
    const NetMetrics m = net->run(100);
    EXPECT_EQ(m.rounds, kRounds + 1);
    // Every broadcast round is dense enough to pull.
    EXPECT_EQ(net->pulled_rounds(), kRounds);
    std::uint64_t copies = 0;
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      const auto sent = [r](NodeId u) { return two_thirds(u, r - 1); };
      ASSERT_TRUE(gate_admits(*net, sent)) << "round " << r - 1;
      for (NodeId v = 0; v < kLeft + kRight; ++v) {
        std::vector<Seen> want = want_inbox(*net, v, r, sent);
        std::vector<Seen> got = inboxes->at({v, r});
        copies += want.size();
        if (order == DeliveryOrder::kReverseSource) {
          std::reverse(want.begin(), want.end());
        } else if (order == DeliveryOrder::kRandomShuffle) {
          std::sort(got.begin(), got.end(),
                    [](const Seen& a, const Seen& b) { return a.src < b.src; });
        }
        EXPECT_EQ(got, want) << "node " << v << " round " << r;
      }
    }
    EXPECT_EQ(m.messages, copies);
  }
}

/// Runs round 0 on `n` nodes joined by `edges` (or the clique when `edges`
/// is empty): every node in `speakers` broadcasts payload(v, 0), and
/// `unicast`, when set, sends one copy of its sender's payload. Checks
/// each round-1 inbox against the adjacency — under message hazards each
/// delivered copy must be one of the wanted ones, in ascending source
/// order — and the traced path of both rounds, and returns how many
/// rounds pulled.
std::uint64_t pulled_in_round0(std::size_t n,
                               const std::vector<std::pair<NodeId, NodeId>>&
                                   edges,
                               const std::set<NodeId>& speakers,
                               std::pair<NodeId, NodeId> unicast,
                               Network::Options o) {
  if (edges.empty()) o.topology = Topology::kClique;
  Tracer tracer;
  o.tracer = &tracer;
  Network net(n, o);
  for (const auto& [u, v] : edges) net.add_edge(u, v);
  net.finalize();
  auto inboxes = std::make_shared<Inboxes>();
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    net.set_process(
        v, std::make_unique<Script>(
               [inboxes, speakers, unicast](NodeContext& ctx,
                                            std::span<const Message> in) {
                 record(*inboxes, ctx, in);
                 if (ctx.round() > 0) {
                   ctx.halt();
                   return;
                 }
                 const Seen m = payload(ctx.self(), 0);
                 if (speakers.count(ctx.self()) != 0) {
                   ctx.broadcast(m.kind, m.field, m.bits);
                 } else if (ctx.self() == unicast.first) {
                   ctx.send(unicast.second, m.kind, m.field, m.bits);
                 }
               }));
  }
  net.run(10);
  const bool hazards = o.faults.any_message_hazard();
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const std::vector<Seen> want = want_inbox(net, v, 1, [&](NodeId u) {
      return speakers.count(u) != 0 ||
             (u == unicast.first && v == unicast.second);
    });
    const std::vector<Seen>& got = inboxes->at({v, 1});
    if (!hazards) {
      EXPECT_EQ(got, want) << "node " << v;
      continue;
    }
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_NE(std::find(want.begin(), want.end(), got[j]), want.end())
          << "node " << v << ": " << got[j];
      if (j > 0) {
        EXPECT_LE(got[j - 1].src, got[j].src) << "node " << v;
      }
    }
  }
  // Round 0 takes the gate's path; round 1 only halts, so it pushes.
  EXPECT_EQ(tracer.rounds().size(), 2u);
  std::uint64_t pull_records = 0;
  for (const TraceRound& rec : tracer.rounds()) {
    pull_records += rec.path == TracePath::kPull ? 1 : 0;
    if (rec.round > 0) {
      EXPECT_EQ(rec.path, TracePath::kPush) << "round " << rec.round;
    }
  }
  EXPECT_EQ(pull_records, net.pulled_rounds());
  return net.pulled_rounds();
}

TEST(Network, PullGateTakesOnlyFaultFreeExplicitAllBroadcastDenseRounds) {
  // Broadcasters 0 (to 2, 3, 4) and 1 (to 2); the receivers' degrees are
  // 2 + 3 + 3 = 8, filled out by the silent leaves 5-8.
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 5}, {3, 6}, {4, 7}, {4, 8}};
  constexpr std::pair<NodeId, NodeId> kNone{kNoNode, kNoNode};
  // Degree sum 8, exactly twice the 4 copies: pull.
  EXPECT_EQ(pulled_in_round0(9, edges, {0, 1}, kNone, opts()), 1u);
  // Node 0 alone reaches the same receivers with one copy fewer: push.
  EXPECT_EQ(pulled_in_round0(9, edges, {0}, kNone, opts()), 0u);
  // One unicast among the broadcasts makes the round mixed: push.
  EXPECT_EQ(pulled_in_round0(9, edges, {0, 1}, {5, 3}, opts()), 0u);

  // Message hazards push even the densest round.
  std::set<NodeId> everyone;
  for (NodeId v = 0; v < kLeft + kRight; ++v) everyone.insert(v);
  const auto bipartite = bipartite_edges();
  const auto n = static_cast<std::size_t>(kLeft + kRight);
  EXPECT_EQ(pulled_in_round0(n, bipartite, everyone, kNone, opts()), 1u);
  Network::Options drop = opts();
  drop.faults.drop_probability = 0.3;
  EXPECT_EQ(pulled_in_round0(n, bipartite, everyone, kNone, drop), 0u);
  Network::Options dup = opts();
  dup.faults.duplicate_probability = 0.5;
  EXPECT_EQ(pulled_in_round0(n, bipartite, everyone, kNone, dup), 0u);

  // So does the clique, where every node broadcasting is the densest
  // round there is.
  std::set<NodeId> clique_all;
  for (NodeId v = 0; v < 9; ++v) clique_all.insert(v);
  EXPECT_EQ(pulled_in_round0(9, {}, clique_all, kNone, opts()), 0u);
}

TEST(Network, PulledBroadcastsReachSleepersHaltersAndCrashedSenders) {
  const auto left = [](NodeId u) { return u < kLeft; };
  {
    // Node kLeft sleeps from round 0 to round 100; the left side
    // broadcasts in round 2 and wakes it for round 3.
    constexpr NodeId kSleeper = kLeft;
    auto inboxes = std::make_shared<Inboxes>();
    auto net = bipartite_net(
        opts(), [inboxes](NodeContext& ctx, std::span<const Message> in) {
          record(*inboxes, ctx, in);
          if (ctx.self() == kSleeper && ctx.round() == 0) {
            ctx.sleep_until(100);
          } else if (ctx.round() == 3) {
            ctx.halt();
          } else if (ctx.round() == 2 && ctx.self() < kLeft) {
            const Seen m = payload(ctx.self(), 2);
            ctx.broadcast(m.kind, m.field, m.bits);
          }
        });
    const NetMetrics m = net->run(1000);
    EXPECT_EQ(m.rounds, 4u);
    EXPECT_EQ(net->pulled_rounds(), 1u);
    EXPECT_TRUE(net->all_halted());
    EXPECT_EQ(inboxes->count({kSleeper, 1}), 0u);
    EXPECT_EQ(inboxes->count({kSleeper, 2}), 0u);
    const std::vector<Seen> want = want_inbox(*net, kSleeper, 3, left);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(inboxes->at({kSleeper, 3}), want);
  }
  for (const bool crash : {false, true}) {
    // The left side broadcasts in round 0 and halts in the same step, or
    // (crash) node 0 instead crashes at the start of round 1 under a
    // crash-only plan, which is no message hazard. Either way every
    // right node still hears every left neighbour.
    Network::Options o = opts();
    if (crash) o.faults.crashes = {{0, 1}};
    auto inboxes = std::make_shared<Inboxes>();
    auto net = bipartite_net(
        o, [inboxes, crash](NodeContext& ctx, std::span<const Message> in) {
          record(*inboxes, ctx, in);
          if (ctx.round() == 0 && ctx.self() < kLeft) {
            const Seen m = payload(ctx.self(), 0);
            ctx.broadcast(m.kind, m.field, m.bits);
            if (!crash) ctx.halt();
          } else if (ctx.round() >= 1) {
            ctx.halt();
          }
        });
    const NetMetrics m = net->run(100);
    EXPECT_EQ(net->pulled_rounds(), 1u) << "crash = " << crash;
    EXPECT_EQ(m.crashed, crash ? 1u : 0u);
    EXPECT_TRUE(net->all_halted());
    for (NodeId v = kLeft; v < kLeft + kRight; ++v) {
      EXPECT_EQ(inboxes->at({v, 1}), want_inbox(*net, v, 1, left))
          << "node " << v << " crash = " << crash;
    }
    // Node 0 crashed before stepping in round 1.
    if (crash) {
      EXPECT_EQ(inboxes->count({0, 1}), 0u);
    }
  }
}

TEST(Network, RunCutWithAPullRoundInFlightResumesAndRestarts) {
  constexpr std::uint64_t kRounds = 8;
  Network::Options o = opts();
  o.delivery = DeliveryOrder::kRandomShuffle;
  const auto run_chunks = [&](const std::vector<std::uint64_t>& chunks) {
    auto inboxes = std::make_shared<Inboxes>();
    auto net = bipartite_net(o, pull_probe(inboxes, two_thirds, kRounds));
    NetMetrics total;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const NetMetrics part = net->run(chunks[c]);
      total.merge(part);
      if (c + 1 < chunks.size()) {
        // Cut with the latest broadcast round pulled and still in flight.
        EXPECT_EQ(net->pulled_rounds(), total.rounds);
        EXPECT_GT(net->inflight_messages(), 0u);
      }
    }
    EXPECT_EQ(net->pulled_rounds(), kRounds);
    return std::make_pair(*inboxes, total.to_string());
  };
  const auto whole = run_chunks({100});
  EXPECT_EQ(run_chunks({1, 100}), whole);
  EXPECT_EQ(run_chunks({2, 1, 100}), whole);
  EXPECT_EQ(run_chunks({3, 3, 100}), whole);

  // restart() with a pull round in flight discards it and clears the
  // column: the rerun equals a fresh network's, under new options too.
  // The cut execution pulls the left side's broadcasts twice and then
  // everyone's, so a column left uncleared would still name right-side
  // senders that the rerun's first broadcasts do not all overwrite.
  const auto left_then_all = [](NodeId v, std::uint64_t r) {
    return v < kLeft || r >= 2;
  };
  Network::Options second = o;
  second.seed = 99;
  second.delivery = DeliveryOrder::kBySource;
  auto fresh_inboxes = std::make_shared<Inboxes>();
  auto fresh =
      bipartite_net(second, pull_probe(fresh_inboxes, two_thirds, kRounds));
  const NetMetrics want = fresh->run(100);

  auto cut_inboxes = std::make_shared<Inboxes>();
  auto rerun =
      bipartite_net(o, pull_probe(cut_inboxes, left_then_all, kRounds));
  (void)rerun->run(3);
  ASSERT_EQ(rerun->pulled_rounds(), 3u);
  ASSERT_GT(rerun->inflight_messages(), 0u);
  rerun->restart(second);
  EXPECT_EQ(rerun->pulled_rounds(), 0u);
  auto rerun_inboxes = std::make_shared<Inboxes>();
  for (NodeId v = 0; v < kLeft + kRight; ++v) {
    rerun->set_process(v, std::make_unique<Script>(pull_probe(
                              rerun_inboxes, two_thirds, kRounds)));
  }
  const NetMetrics got = rerun->run(100);
  EXPECT_EQ(got.to_string(), want.to_string());
  EXPECT_EQ(rerun->pulled_rounds(), fresh->pulled_rounds());
  EXPECT_EQ(*rerun_inboxes, *fresh_inboxes);
}

}  // namespace
}  // namespace dflp::net
