// Tests for the congested-clique topology (Network::clique):
// implicit rotation adjacency, the one-message-per-link rule (including a
// unicast or second broadcast beside a broadcast), analytic broadcast
// accounting, and determinism of clique rounds across thread counts and
// fault hazards.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "netsim/message.h"
#include "netsim/network.h"
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

TEST(Clique, NeighborsAreTheRotationOfAllOtherNodes) {
  Network net = Network::clique(5, opts());
  // Node i sees the other n-1 nodes as the rotation i+1, ..., n-1, 0, ...,
  // i-1 — deliberately unsorted, but a permutation of everyone else.
  const auto nbrs_of = [&](NodeId i) {
    const auto s = net.neighbors_of(i);
    return std::vector<NodeId>(s.begin(), s.end());
  };
  EXPECT_EQ(nbrs_of(0), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(nbrs_of(2), (std::vector<NodeId>{3, 4, 0, 1}));
  EXPECT_EQ(nbrs_of(4), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(net.num_edges(), 10u);  // n(n-1)/2 implicit edges
}

TEST(Clique, TinyCliqueRejected) {
  // A 1-clique has no links.
  EXPECT_THROW((void)Network::clique(1, opts()), CheckError);
}

TEST(Clique, MessageDeliveredNextRoundIntact) {
  Network net = Network::clique(3, opts());
  std::vector<Message> got;
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.send(2, /*kind=*/7, {11, -22, 33});
    ctx.halt();
  }));
  net.set_process(2, std::make_unique<Script>(
                         [&](NodeContext& ctx, std::span<const Message> in) {
                           for (const auto& m : in) got.push_back(m);
                           if (ctx.round() >= 1) ctx.halt();
                         }));
  fill_idle(net, {0, 2});
  net.run(10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].dst, 2);
  EXPECT_EQ(got[0].kind, 7);
  EXPECT_EQ(got[0].field[0], 11);
  EXPECT_EQ(got[0].field[1], -22);
  EXPECT_EQ(got[0].field[2], 33);
}

TEST(Clique, SelfSendAndOutOfRangeThrow) {
  for (const NodeId target : {NodeId{1}, NodeId{3}}) {
    Network net = Network::clique(3, opts());
    net.set_process(1, std::make_unique<Script>([target](NodeContext& ctx,
                                                         auto) {
      ctx.send(target, 1);  // self (1) or out of range (3)
    }));
    fill_idle(net, {1});
    EXPECT_THROW(net.run(2), CheckError);
  }
}

TEST(Clique, SecondUnicastToSameDestinationThrows) {
  Network net = Network::clique(4, opts());
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    ctx.send(2, 1);
    ctx.send(2, 1);  // exceeds the per-link allowance of 1
  }));
  fill_idle(net, {0});
  EXPECT_THROW(net.run(2), CheckError);
}

TEST(Clique, UnicastsToDistinctDestinationsAreAllAllowed) {
  // The whole point of the clique model: one message per link per round,
  // so a node may unicast to every other node in the same round.
  Network net = Network::clique(6, opts());
  std::size_t delivered = 0;
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0)
      for (const NodeId nb : ctx.neighbors()) ctx.send(nb, 1);
    ctx.halt();
  }));
  for (NodeId v = 1; v < 6; ++v) {
    net.set_process(v, std::make_unique<Script>(
                           [&](NodeContext& ctx, std::span<const Message> in) {
                             delivered += in.size();
                             if (ctx.round() >= 1) ctx.halt();
                           }));
  }
  const NetMetrics m = net.run(5);
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(m.messages, 5u);
}

TEST(Clique, UnicastPlusBroadcastThrows) {
  // The allowance is one message per directed link: a broadcast crosses
  // every link, so it conflicts with a unicast in either order and with a
  // second broadcast; two frames on one link conflict like two unicasts.
  enum class Pattern {
    kUnicastFirst,
    kBroadcastFirst,
    kTwoBroadcasts,
    kTwoFrames
  };
  for (const Pattern pattern :
       {Pattern::kUnicastFirst, Pattern::kBroadcastFirst,
        Pattern::kTwoBroadcasts, Pattern::kTwoFrames}) {
    Network net = Network::clique(4, opts());
    net.set_process(0, std::make_unique<Script>(
                           [pattern](NodeContext& ctx, auto) {
                             switch (pattern) {
                               case Pattern::kUnicastFirst:
                                 ctx.send(1, 1);
                                 ctx.broadcast(2);
                                 break;
                               case Pattern::kBroadcastFirst:
                                 ctx.broadcast(2);
                                 ctx.send(1, 1);
                                 break;
                               case Pattern::kTwoBroadcasts:
                                 ctx.broadcast(1);
                                 ctx.broadcast(2);
                                 break;
                               case Pattern::kTwoFrames: {
                                 Message frame;
                                 frame.src = 0;
                                 frame.dst = 3;
                                 frame.has_header = true;
                                 ctx.send_frame(frame);
                                 ctx.send_frame(frame);
                                 break;
                               }
                             }
                           }));
    fill_idle(net, {0});
    try {
      net.run(2);
      ADD_FAILURE() << "pattern " << static_cast<int>(pattern)
                    << ": no CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find("on 0->") != std::string::npos ||
                  what.find("from 0 ") != std::string::npos)
          << what;
      EXPECT_NE(what.find("in round 0"), std::string::npos) << what;
    }
  }
}

TEST(Clique, BroadcastAccountingIsAnalyticFanOut) {
  // One broadcast on an n-clique bills n-1 messages and (n-1) * honest
  // bits without materializing per-destination records at send time.
  const std::size_t n = 64;
  Network net = Network::clique(n, opts());
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.broadcast(1, {3, 0, 0});  // 8+3 = 11 bits
    ctx.halt();
  }));
  fill_idle(net, {0});
  const NetMetrics m = net.run(5);
  EXPECT_EQ(m.messages, n - 1);
  EXPECT_EQ(m.total_bits, (n - 1) * 11u);
  EXPECT_EQ(m.max_message_bits, 11);
  EXPECT_EQ(m.max_messages_in_round, n - 1);
}

TEST(Clique, BroadcastReachesEveryOtherNodeExactlyOnce) {
  const std::size_t n = 9;
  Network net = Network::clique(n, opts());
  std::vector<int> copies(n, 0);
  net.set_process(4, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.broadcast(5);
    ctx.halt();
  }));
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (v == 4) continue;
    net.set_process(v, std::make_unique<Script>(
                           [&copies, v](NodeContext& ctx,
                                        std::span<const Message> in) {
                             for (const auto& m : in)
                               if (m.kind == 5) ++copies[v];
                             if (ctx.round() >= 1) ctx.halt();
                           }));
  }
  net.run(5);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
    EXPECT_EQ(copies[v], v == 4 ? 0 : 1) << "node " << v;
}

/// Deterministic all-to-all echo protocol used by the sweep tests: round 0
/// everyone broadcasts its id, round 1 everyone folds the received ids into
/// a checksum and halts. Returns "checksum | metrics fingerprint".
std::string run_echo(std::size_t n, DeliveryOrder delivery,
                     double drop_probability = 0.0,
                     double duplicate_probability = 0.0) {
  auto o = opts();
  o.delivery = delivery;
  o.faults.drop_probability = drop_probability;
  o.faults.duplicate_probability = duplicate_probability;
  o.faults.fault_seed = 23;
  Network net = Network::clique(n, o);
  std::vector<std::int64_t> sums(n, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    net.set_process(v, std::make_unique<Script>(
                           [&sums, v](NodeContext& ctx,
                                      std::span<const Message> in) {
                             if (ctx.round() == 0) {
                               ctx.broadcast(1, {v, 0, 0});
                               return;
                             }
                             for (const auto& m : in)
                               sums[v] += (m.field[0] + 1) * (v + 1);
                             ctx.halt();
                           }));
  }
  const NetMetrics m = net.run(5);
  std::ostringstream os;
  for (const std::int64_t s : sums) os << s << ',';
  os << " | " << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.dropped << '/' << m.duplicated;
  return os.str();
}

TEST(Clique, EchoBitIdenticalAcrossDeliveryAndHazards) {
  // Committed expectation for the fault-free case: every node hears every
  // other id, so sums[v] = (v+1) * (n(n+1)/2 - (v+1)).
  const std::size_t n = 16;
  const std::string clean = run_echo(n, DeliveryOrder::kBySource);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const std::int64_t expect = (v + 1) * (16 * 17 / 2 - (v + 1));
    std::ostringstream token;
    token << expect << ',';
    EXPECT_NE(clean.find(token.str()), std::string::npos) << clean;
  }
  const std::string drops =
      run_echo(n, DeliveryOrder::kBySource, /*drop=*/0.2);
  const std::string dups =
      run_echo(n, DeliveryOrder::kBySource, /*drop=*/0.0, /*dup=*/0.2);
  EXPECT_NE(drops, clean);
  EXPECT_NE(dups, clean);
  for (const DeliveryOrder delivery :
       {DeliveryOrder::kRandomShuffle, DeliveryOrder::kReverseSource}) {
    // The sums are order-insensitive folds and the fault coins are drawn
    // per sender, not per inbox, so every delivery order must reproduce
    // the BySource result, fault-free and under each hazard stream.
    EXPECT_EQ(run_echo(n, delivery), clean);
    EXPECT_EQ(run_echo(n, delivery, /*drop=*/0.2), drops);
    EXPECT_EQ(run_echo(n, delivery, /*drop=*/0.0, /*dup=*/0.2), dups);
  }
}

TEST(Clique, DroppedBroadcastCopiesAreCountedPerLink) {
  // drop_probability = 1 kills every copy of the broadcast; the analytic
  // fan-out must still be charged at the sender and then drained by the
  // per-copy hazard coins.
  const std::size_t n = 8;
  auto o = opts();
  o.faults.drop_probability = 1.0;
  Network net = Network::clique(n, o);
  std::size_t delivered = 0;
  net.set_process(0, std::make_unique<Script>([](NodeContext& ctx, auto) {
    if (ctx.round() == 0) ctx.broadcast(1);
    ctx.halt();
  }));
  for (NodeId v = 1; v < static_cast<NodeId>(n); ++v) {
    net.set_process(v, std::make_unique<Script>(
                           [&](NodeContext& ctx, std::span<const Message> in) {
                             delivered += in.size();
                             if (ctx.round() >= 1) ctx.halt();
                           }));
  }
  const NetMetrics m = net.run(5);
  EXPECT_EQ(delivered, 0u);
  // Under hazards `messages` counts delivered copies (the engine-wide
  // semantics); every analytic copy must surface as its own per-link drop.
  EXPECT_EQ(m.messages, 0u);
  EXPECT_EQ(m.dropped, n - 1);
}

TEST(Clique, LargeCliqueConstructionStaysImplicit) {
  // 4096 nodes would need ~8.4M explicit undirected edges; the implicit
  // topology is built instantly and still reports the right counts.
  const std::size_t n = 4096;
  Network net = Network::clique(n, opts());
  EXPECT_EQ(net.num_edges(), n * (n - 1) / 2);
  EXPECT_EQ(net.neighbors_of(0).size(), n - 1);
  EXPECT_EQ(net.neighbors_of(static_cast<NodeId>(n - 1)).size(), n - 1);
  fill_idle(net);
  const NetMetrics m = net.run(3);
  EXPECT_EQ(m.rounds, 1u);
  EXPECT_EQ(m.messages, 0u);
}

TEST(Clique, PortIsTheSendersRotationPosition) {
  // The clique's ports are arithmetic, never stored: the same sweep as on
  // explicit graphs.
  expect_ports_hold(/*clique=*/true, 12);
}

}  // namespace
}  // namespace dflp::net
