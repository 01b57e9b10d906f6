// Tests for the metric solver suite: the planted-cluster metric workload
// and its validator (fl/metric.h), Li's scaled-JMS sequential baseline
// (core/metric_baseline.h) and the BHP congested-clique facility-location
// solver (core/clique_fl.h), including its equivalence sweep across thread
// counts, delivery orders and fault hazards.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/check.h"
#include "core/clique_fl.h"
#include "core/metric_baseline.h"
#include "fl/instance.h"
#include "fl/metric.h"
#include "fl/serialize.h"
#include "seq/jms.h"

namespace dflp {
namespace {

fl::MetricInstance small_metric(std::uint64_t seed = 5) {
  fl::MetricParams params;
  params.facilities = 12;
  params.clients = 40;
  params.clusters = 3;
  return fl::make_metric_instance(params, seed);
}

TEST(Metric, GeneratorProducesCompleteBipartiteMetricInstances) {
  const fl::MetricInstance minst = small_metric();
  const fl::Instance& inst = minst.instance;
  EXPECT_EQ(inst.num_facilities(), 12);
  EXPECT_EQ(inst.num_clients(), 40);
  EXPECT_EQ(inst.num_edges(), 12u * 40u);
  ASSERT_EQ(minst.facility_pos.size(), 12u);
  ASSERT_EQ(minst.client_pos.size(), 40u);
  // Edge costs are exactly the Euclidean site distances.
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    for (const fl::ClientEdge& e : inst.client_edges(j))
      EXPECT_DOUBLE_EQ(
          e.cost,
          fl::metric_distance(
              minst.facility_pos[static_cast<std::size_t>(e.facility)],
              minst.client_pos[static_cast<std::size_t>(j)]));
  // Euclidean costs satisfy the validator with (almost) zero tolerance.
  EXPECT_NO_THROW(fl::check_metric(inst));
  EXPECT_NO_THROW(fl::check_metric(inst, /*rel_tol=*/1e-12));
}

TEST(Metric, GeneratorIsDeterministicPerSeed) {
  const fl::MetricInstance a = small_metric(9);
  const fl::MetricInstance b = small_metric(9);
  const fl::MetricInstance c = small_metric(10);
  EXPECT_EQ(fl::to_text(a.instance), fl::to_text(b.instance));
  EXPECT_NE(fl::to_text(a.instance), fl::to_text(c.instance));
}

TEST(Metric, ClosureIsTightestClientBridge) {
  // Two facilities, two clients: the closure entry is the cheapest
  // two-hop bridge min_j (c(0,j) + c(1,j)).
  fl::InstanceBuilder b;
  b.add_facility(1.0);
  b.add_facility(1.0);
  b.add_client();
  b.add_client();
  b.connect(0, 0, 3.0);
  b.connect(1, 0, 4.0);
  b.connect(0, 1, 1.0);
  b.connect(1, 1, 5.0);
  const fl::Instance inst = b.build();
  const std::vector<double> closure = fl::facility_metric_closure(inst);
  ASSERT_EQ(closure.size(), 4u);
  EXPECT_EQ(closure[0 * 2 + 0], 0.0);
  EXPECT_EQ(closure[1 * 2 + 1], 0.0);
  EXPECT_DOUBLE_EQ(closure[0 * 2 + 1], 6.0);  // min(3+4, 1+5)
  EXPECT_DOUBLE_EQ(closure[1 * 2 + 0], 6.0);
}

TEST(Metric, ValidatorRejectsTriangleViolationWithNamedError) {
  // c(0,1) = 1 and c(1,1) = 20, but the bridge through client 0 says the
  // two facilities are at distance <= 3 + 4 = 7: |1 - 20| > 7 violates the
  // quadrangle inequality, so this cost matrix embeds in no metric.
  fl::InstanceBuilder b;
  b.add_facility(1.0);
  b.add_facility(1.0);
  b.add_client();
  b.add_client();
  b.connect(0, 0, 3.0);
  b.connect(1, 0, 4.0);
  b.connect(0, 1, 1.0);
  b.connect(1, 1, 20.0);
  const fl::Instance inst = b.build();
  try {
    fl::check_metric(inst);
    FAIL() << "check_metric accepted a non-metric instance";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("triangle inequality violated"), std::string::npos)
        << what;
    EXPECT_NE(what.find("D(i,i')"), std::string::npos) << what;
  }
}

TEST(Metric, ValidatorToleranceScalesRelatively) {
  // A violation of 1 part in 1e3 passes at rel_tol 1e-2 but fails at 1e-9.
  fl::InstanceBuilder b;
  b.add_facility(1.0);
  b.add_facility(1.0);
  b.add_client();
  b.add_client();
  b.connect(0, 0, 1000.0);
  b.connect(1, 0, 1000.0);
  b.connect(0, 1, 1.0);
  b.connect(1, 1, 2002.0);  // gap 2001 vs bridge 2000
  const fl::Instance inst = b.build();
  EXPECT_THROW(fl::check_metric(inst, 1e-9), CheckError);
  EXPECT_NO_THROW(fl::check_metric(inst, 1e-2));
}

TEST(MetricBaseline, LiNeverLosesToPlainJms) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const fl::MetricInstance minst = small_metric(seed);
    const seq::JmsResult jms = seq::jms_solve(minst.instance);
    const core::LiResult li = core::li_jms_solve(minst.instance);
    EXPECT_LE(li.cost, jms.solution.cost(minst.instance) + 1e-9)
        << "seed " << seed;
    EXPECT_EQ(li.candidates,
              static_cast<int>(core::li_default_scales().size()));
    EXPECT_GE(li.scale, 1.0);
    std::string why;
    EXPECT_TRUE(li.solution.is_feasible(minst.instance, &why)) << why;
    EXPECT_DOUBLE_EQ(li.solution.cost(minst.instance), li.cost);
  }
}

TEST(MetricBaseline, ScaleBelowOneRejected) {
  const fl::MetricInstance minst = small_metric();
  EXPECT_THROW(core::li_jms_solve(minst.instance, {0.5}), CheckError);
}

TEST(CliqueFl, SolvesMetricInstanceFeasiblyWithinFactorOfBaseline) {
  const fl::MetricInstance minst = small_metric();
  core::CliqueFlParams params;
  const core::CliqueFlOutcome out = core::run_clique_fl(minst, params);
  std::string why;
  EXPECT_TRUE(out.solution.is_feasible(minst.instance, &why)) << why;
  EXPECT_GE(out.open_facilities, 1);
  EXPECT_GE(out.iterations, 1u);
  // Ruling-set solvers on a planted-cluster metric stay within a small
  // constant of the best sequential baseline (the proven factor is O(1);
  // the slack here is deliberately loose).
  const core::LiResult li = core::li_jms_solve(minst.instance);
  EXPECT_LE(out.solution.cost(minst.instance), 8.0 * li.cost);
}

TEST(CliqueFl, RoundCountIsDoublyLogarithmic) {
  // The sampling schedule reaches probability 1 by iteration
  // ceil(log2 log2 m) + 1, each iteration costs two rounds, plus the final
  // client round: rounds <= 2 * (log2 log2 m + 2) + 2 whatever the metric.
  for (const std::int32_t m : {8, 32, 128}) {
    fl::MetricParams params;
    params.facilities = m;
    params.clients = 2 * m;
    params.clusters = 4;
    const fl::MetricInstance minst = fl::make_metric_instance(params, 11);
    const core::CliqueFlOutcome out =
        core::run_clique_fl(minst, core::CliqueFlParams{});
    const double loglog =
        std::log2(std::max(2.0, std::log2(static_cast<double>(m))));
    EXPECT_LE(out.metrics.rounds, 2 * (loglog + 2) + 2) << "m = " << m;
    EXPECT_LE(out.iterations, loglog + 2) << "m = " << m;
  }
}

TEST(CliqueFl, ClosureOverloadMatchesSideChannelOnDegenerateGeometry) {
  // The closure-based overload must run and agree with the baseline's
  // feasibility on a plain complete-bipartite instance.
  const fl::MetricInstance minst = small_metric(3);
  const core::CliqueFlOutcome out =
      core::run_clique_fl(minst.instance, core::CliqueFlParams{});
  std::string why;
  EXPECT_TRUE(out.solution.is_feasible(minst.instance, &why)) << why;
}

TEST(CliqueFl, IncompleteInstanceRejected) {
  fl::InstanceBuilder b;
  b.add_facility(1.0);
  b.add_facility(1.0);
  b.add_client();
  b.connect(0, 0, 1.0);  // client 0 misses facility 1
  const fl::Instance inst = b.build();
  try {
    (void)core::run_clique_fl(inst, core::CliqueFlParams{});
    FAIL() << "incomplete bipartite instance accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("complete bipartite"),
              std::string::npos)
        << e.what();
  }
}

std::string clique_fingerprint(const fl::MetricInstance& minst,
                               const core::CliqueFlOutcome& out) {
  std::ostringstream os;
  os << "open:";
  for (fl::FacilityId i = 0; i < minst.instance.num_facilities(); ++i)
    os << (out.solution.is_open(i) ? '1' : '0');
  os << " assign:";
  for (fl::ClientId j = 0; j < minst.instance.num_clients(); ++j)
    os << out.solution.assignment(j) << ',';
  os << " iters:" << out.iterations << " | " << out.metrics.rounds << '/'
     << out.metrics.messages << '/' << out.metrics.total_bits << '/'
     << out.metrics.dropped << '/' << out.metrics.duplicated;
  return os.str();
}

// Committed golden for the clique-fl sweep configuration (metric seed 5,
// 12 facilities / 40 clients / 3 clusters; engine seed 21): the full
// solution + metrics fingerprint. Every thread count and delivery order
// must reproduce it exactly; regenerate with
// --gtest_filter='*GoldenFingerprintPinned*' after an intentional protocol
// change and paste the printed fingerprint.
constexpr char kCliqueFlGolden[] =
    "open:010001100000 assign:6,1,5,6,1,5,6,1,5,6,1,5,6,1,5,6,1,5,6,1"
    ",5,6,1,5,6,1,5,6,1,5,6,1,5,6,1,5,6,1,5,6, iters:3 | 8/1020/11526"
    "/0/0";

TEST(CliqueFl, GoldenFingerprintPinned) {
  const fl::MetricInstance minst = small_metric();
  core::CliqueFlParams params;
  params.seed = 21;
  const core::CliqueFlOutcome out = core::run_clique_fl(minst, params);
  EXPECT_EQ(clique_fingerprint(minst, out), kCliqueFlGolden);
}

TEST(CliqueFl, BitIdenticalAcrossDeliveryAndDuplication) {
  const fl::MetricInstance minst = small_metric();
  const auto run = [&](net::DeliveryOrder delivery,
                       double duplicate_probability) {
    core::CliqueFlParams params;
    params.seed = 21;
    params.delivery = delivery;
    params.faults.duplicate_probability = duplicate_probability;
    params.faults.fault_seed = 23;
    return clique_fingerprint(minst, core::run_clique_fl(minst, params));
  };
  const std::string baseline = run(net::DeliveryOrder::kBySource, 0.0);
  const std::string dup_baseline = run(net::DeliveryOrder::kBySource, 0.2);
  // Duplication: metrics legitimately differ from the clean run, but the
  // *solution* prefix must match the clean one.
  EXPECT_NE(dup_baseline, baseline);
  EXPECT_EQ(dup_baseline.substr(0, dup_baseline.find(" | ")),
            baseline.substr(0, baseline.find(" | ")));
  for (const net::DeliveryOrder delivery :
       {net::DeliveryOrder::kRandomShuffle,
        net::DeliveryOrder::kReverseSource}) {
    // The protocol's folds are order-insensitive and the duplication
    // coins are drawn per sender, so every delivery order reproduces the
    // BySource fingerprint (solution + metrics), with and without
    // duplication.
    EXPECT_EQ(run(delivery, 0.0), baseline);
    EXPECT_EQ(run(delivery, 0.2), dup_baseline);
  }
}

TEST(CliqueFl, MessageLossFailsLoudlyAndIdentically) {
  const fl::MetricInstance minst = small_metric();
  const auto run = [&](net::DeliveryOrder delivery) -> std::string {
    core::CliqueFlParams params;
    params.seed = 21;
    params.delivery = delivery;
    params.faults.drop_probability = 0.3;
    params.faults.fault_seed = 23;
    params.max_rounds = 64;
    try {
      (void)core::run_clique_fl(minst, params);
      return "completed";
    } catch (const CheckError& e) {
      return std::string("CheckError: ") + e.what();
    }
  };
  const std::string baseline = run(net::DeliveryOrder::kBySource);
  // Dropped OPEN/RETIRE announcements can never be re-learned, so the run
  // must stall and throw the named diagnostic...
  EXPECT_NE(baseline.find("clique-fl stalled"), std::string::npos)
      << baseline;
  // ...identically under every delivery order: the drop coins are drawn
  // per sender, not per inbox.
  for (const net::DeliveryOrder delivery :
       {net::DeliveryOrder::kRandomShuffle,
        net::DeliveryOrder::kReverseSource})
    EXPECT_EQ(run(delivery), baseline);
}

}  // namespace
}  // namespace dflp
