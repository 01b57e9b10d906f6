// Unit tests for the seeded fault model: Network::Options validation at
// construction, FaultPlan stream determinism (burst chains, crash
// schedules, duplication), and metrics reporting of fault counters.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "netsim/fault.h"
#include "netsim/message.h"
#include "netsim/metrics.h"
#include "netsim/network.h"
#include "rejection.h"

namespace dflp::net {
namespace {

Network::Options base_opts() {
  Network::Options o;
  o.bit_budget = 64;
  o.seed = 1;
  return o;
}

/// Builds a 2-node network with `o` (construction validates the options).
void build_with(const Network::Options& o) {
  Network net(build_sorted_adjacency(2, {{0, 1}}), o);
}

TEST(OptionsValidation, AcceptsDefaults) {
  EXPECT_NO_THROW(build_with(base_opts()));
}

TEST(OptionsValidation, RejectsBitBudgetBelowOpcode) {
  Network::Options o = base_opts();
  o.bit_budget = 7;
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("bit_budget must be >= 8"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 7"), std::string::npos) << msg;
}

TEST(OptionsValidation, RejectsOutOfRangeDropProbability) {
  Network::Options o = base_opts();
  o.faults.drop_probability = 1.5;
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("drop_probability must be in [0, 1]"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("1.5"), std::string::npos) << msg;
}

TEST(OptionsValidation, RejectsNegativeDuplicateProbability) {
  Network::Options o = base_opts();
  o.faults.duplicate_probability = -0.25;
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("duplicate_probability must be in [0, 1]"),
            std::string::npos)
      << msg;
}

TEST(OptionsValidation, RejectsBurstThatNeverRecovers) {
  Network::Options o = base_opts();
  o.faults.burst.p_good_to_bad = 0.1;
  o.faults.burst.p_bad_to_good = 0.0;
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("p_bad_to_good must be > 0"), std::string::npos) << msg;
}

TEST(OptionsValidation, RejectsCrashEventOutOfNodeRange) {
  Network::Options o = base_opts();
  o.faults.crashes = {{7, 3}};
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("crash event for node 7 out of range"), std::string::npos)
      << msg;
}

TEST(OptionsValidation, RejectsOutOfRangeRandomCrashFraction) {
  Network::Options o = base_opts();
  o.faults.random_crash_fraction = 2.0;
  const std::string msg = rejection_message([&] { build_with(o); });
  EXPECT_NE(msg.find("random_crash_fraction must be in [0, 1]"),
            std::string::npos)
      << msg;
}

TEST(FaultPlan, CrashScheduleSortsAndDeduplicates) {
  FaultPlan::Options o;
  // Node 3 has two events; the earliest round must win. The schedule is
  // sorted by (round, node).
  o.crashes = {{3, 9}, {0, 6}, {3, 2}};
  const FaultPlan plan(o, /*network_seed=*/5, /*num_nodes=*/8);
  ASSERT_EQ(plan.crash_schedule().size(), 2u);
  EXPECT_EQ(plan.crash_schedule()[0].node, 3);
  EXPECT_EQ(plan.crash_schedule()[0].round, 2u);
  EXPECT_EQ(plan.crash_schedule()[1].node, 0);
  EXPECT_EQ(plan.crash_schedule()[1].round, 6u);
}

TEST(FaultPlan, RandomCrashScheduleIsSeedDeterministic) {
  FaultPlan::Options o;
  o.random_crash_fraction = 0.3;
  o.random_crash_round = 4;
  o.random_crash_round_span = 8;
  o.fault_seed = 77;
  const FaultPlan a(o, /*network_seed=*/5, /*num_nodes=*/64);
  const FaultPlan b(o, /*network_seed=*/5, /*num_nodes=*/64);
  ASSERT_EQ(a.crash_schedule().size(), b.crash_schedule().size());
  for (std::size_t i = 0; i < a.crash_schedule().size(); ++i) {
    EXPECT_EQ(a.crash_schedule()[i].node, b.crash_schedule()[i].node);
    EXPECT_EQ(a.crash_schedule()[i].round, b.crash_schedule()[i].round);
  }
  // With 64 nodes at fraction 0.3 the sampled set is essentially never
  // empty or full; a different fault_seed must give a different schedule.
  ASSERT_FALSE(a.crash_schedule().empty());
  ASSERT_LT(a.crash_schedule().size(), 64u);
  for (const CrashEvent& e : a.crash_schedule()) {
    EXPECT_LE(e.round, o.random_crash_round + o.random_crash_round_span);
    EXPECT_GE(e.round, o.random_crash_round);
  }
}

TEST(FaultPlan, DuplicationFiresWithProbabilityOne) {
  FaultPlan::Options o;
  o.duplicate_probability = 1.0;
  FaultPlan plan(o, /*network_seed=*/9, /*num_nodes=*/4);
  auto coins = plan.begin_sender(0, /*round=*/0);
  const FaultPlan::Fate f = plan.fate(coins, 0, 1, 0);
  EXPECT_FALSE(f.dropped);
  EXPECT_TRUE(f.duplicated);
}

TEST(FaultPlan, BurstChainIsQueryOrderIndependent) {
  // Plan A touches the link only at round 9; plan B advances it round by
  // round. The lazily fast-forwarded chain must land in the same state.
  FaultPlan::Options o;
  o.burst.p_good_to_bad = 0.4;
  o.burst.p_bad_to_good = 0.4;
  o.fault_seed = 3;
  for (std::uint64_t probe = 0; probe < 16; ++probe) {
    FaultPlan lazy(o, /*network_seed=*/probe, /*num_nodes=*/4);
    FaultPlan eager(o, /*network_seed=*/probe, /*num_nodes=*/4);
    bool eager_dropped = false;
    for (std::uint64_t r = 0; r <= 9; ++r) {
      auto coins = eager.begin_sender(0, r);
      eager_dropped = eager.fate(coins, 0, 1, r).dropped;
    }
    auto coins = lazy.begin_sender(0, 9);
    EXPECT_EQ(lazy.fate(coins, 0, 1, 9).dropped, eager_dropped)
        << "network_seed=" << probe;
  }
}

TEST(FaultPlan, BadBurstLinkDropsEveryCopy) {
  // The chain flips state every round: good -> bad in round 0, back to
  // good in round 1, and so on. While the link is bad every copy on it is
  // dropped, and while it is good none is.
  FaultPlan::Options o;
  o.burst.p_good_to_bad = 1.0;
  o.burst.p_bad_to_good = 1.0;
  o.fault_seed = 5;
  FaultPlan plan(o, /*network_seed=*/2, /*num_nodes=*/2);
  for (std::uint64_t r = 0; r < 40; ++r) {
    auto coins = plan.begin_sender(0, r);
    for (int copy = 0; copy < 3; ++copy) {
      EXPECT_EQ(plan.fate(coins, 0, 1, r).dropped, r % 2 == 0)
          << "round " << r << " copy " << copy;
    }
  }
}

TEST(FaultPlan, LegacyIidDropStreamIgnoresFaultSeed) {
  // The legacy stream is keyed by the network seed only, so the committed
  // drop-failure goldens survive any fault_seed choice.
  FaultPlan::Options o;
  o.drop_probability = 0.5;
  FaultPlan::Options salted = o;
  salted.fault_seed = 999;
  FaultPlan a(o, /*network_seed=*/13, /*num_nodes=*/4);
  FaultPlan b(salted, /*network_seed=*/13, /*num_nodes=*/4);
  for (std::uint64_t r = 0; r < 8; ++r) {
    auto ca = a.begin_sender(2, r);
    auto cb = b.begin_sender(2, r);
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(a.fate(ca, 2, 3, r).dropped,
                b.fate(cb, 2, 3, r).dropped)
          << "round " << r << " msg " << k;
    }
  }
}

TEST(NetMetrics, ToStringReportsFaultCountersOnlyWhenNonZero) {
  NetMetrics m;
  m.rounds = 3;
  EXPECT_EQ(m.to_string().find("dropped"), std::string::npos);
  EXPECT_EQ(m.to_string().find("duplicated"), std::string::npos);
  EXPECT_EQ(m.to_string().find("crashed"), std::string::npos);
  m.dropped = 2;
  m.duplicated = 4;
  m.crashed = 1;
  const std::string s = m.to_string();
  EXPECT_NE(s.find("dropped=2"), std::string::npos) << s;
  EXPECT_NE(s.find("duplicated=4"), std::string::npos) << s;
  EXPECT_NE(s.find("crashed=1"), std::string::npos) << s;
}

TEST(NetMetrics, MergeSumsCountersMaxesPeaksKeepsEarliestFirstDrop) {
  NetMetrics a;  // an earlier part of the execution that dropped nothing
  a.rounds = 3;
  a.messages = 10;
  a.total_bits = 100;
  a.max_message_bits = 20;
  a.max_messages_in_round = 6;
  a.duplicated = 1;
  a.crashed = 2;
  NetMetrics b;  // a later part: the first drop of the merge is its own
  b.rounds = 4;
  b.messages = 5;
  b.total_bits = 70;
  b.max_message_bits = 30;
  b.max_messages_in_round = 4;
  b.dropped = 2;
  b.first_drop_round = 5;
  b.first_drop_src = 1;
  b.first_drop_dst = 2;
  b.first_drop_kind = 7;
  a.merge(b);
  EXPECT_EQ(a.rounds, 7u);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.total_bits, 170u);
  EXPECT_EQ(a.max_message_bits, 30);
  EXPECT_EQ(a.max_messages_in_round, 6u);
  EXPECT_EQ(a.dropped, 2u);
  EXPECT_EQ(a.duplicated, 1u);
  EXPECT_EQ(a.crashed, 2u);
  EXPECT_EQ(a.first_drop_round, 5u);
  EXPECT_EQ(a.first_drop_src, 1);
  EXPECT_EQ(a.first_drop_dst, 2);
  EXPECT_EQ(a.first_drop_kind, 7);

  // A still later drop adds to the count but never replaces the first.
  NetMetrics c;
  c.dropped = 1;
  c.first_drop_round = 9;
  c.first_drop_src = 3;
  c.first_drop_dst = 0;
  c.first_drop_kind = 4;
  a.merge(c);
  EXPECT_EQ(a.dropped, 3u);
  EXPECT_EQ(a.first_drop_round, 5u);
  EXPECT_EQ(a.first_drop_src, 1);
  EXPECT_EQ(a.first_drop_dst, 2);
  EXPECT_EQ(a.first_drop_kind, 7);
}

}  // namespace
}  // namespace dflp::net
