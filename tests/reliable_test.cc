// Tests for the reliable-transport recovery layer: channel-level recovery
// on a tiny lossy network, end-to-end mw-greedy equality with the
// fault-free golden under drops / duplication / boot crashes, the round
// dilation bound, and the satellite property test over sampled fault
// plans (with recovery: feasible and identical to fault-free; without:
// a deterministic failure naming the first lost message).
#include <gtest/gtest.h>

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
    net::Network net(kNodes, o);
    for (const auto& [u, v] : edges) net.add_edge(u, v);
    net.finalize();
    return net;
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
    net::Network net(2, o);
    net.add_edge(0, 1);
    net.finalize();
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
  net::Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();

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
  net::Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();

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
  net::Network net(2, o);
  net.add_edge(0, 1);
  net.finalize();

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
