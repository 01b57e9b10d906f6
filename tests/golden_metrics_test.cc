// Golden-metrics regression tests for the round engine.
//
// The equivalence sweep (engine_equivalence_test.cc) proves that thread
// count and delivery order cannot change an execution, but it would not
// notice if a transport rewrite shifted *every* configuration in the same
// way. These tests pin the absolute NetMetrics of fixed-seed runs to
// values committed when the per-inbox transport was replaced by the flat
// delivery arena — both engines produced exactly these numbers. Any
// future change that alters a fingerprint is a behavioural change to the
// simulator, not a refactor, and must update the goldens deliberately.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "fl/metric.h"
#include "workload/generators.h"

namespace dflp {
namespace {

std::string metrics_fingerprint(const net::NetMetrics& m) {
  std::ostringstream os;
  os << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.max_message_bits << '/' << m.max_messages_in_round << '/'
     << m.dropped;
  return os.str();
}

// Uniform family, 80 facilities, seed 13; k=4, engine seed 17. Committed
// from identical runs of the pre-arena and arena transports.
constexpr char kGoldenFingerprint[] = "29/1005/8040/8/592/0";
constexpr std::uint64_t kGoldenOpenFacilities = 16;

core::MwParams golden_params() {
  core::MwParams params;
  params.k = 4;
  params.seed = 17;
  return params;
}

fl::Instance golden_instance() {
  return workload::make_family_instance(workload::Family::kUniform, 80, 13);
}

std::uint64_t open_count(const fl::Instance& inst,
                         const fl::IntegralSolution& sol) {
  std::uint64_t open = 0;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    if (sol.is_open(i)) ++open;
  return open;
}

TEST(GoldenMetrics, MwGreedyReliableRunMatchesCommittedFingerprint) {
  const fl::Instance inst = golden_instance();
  const core::MwGreedyOutcome out = core::run_mw_greedy(inst, golden_params());
  EXPECT_EQ(metrics_fingerprint(out.metrics), kGoldenFingerprint);
  EXPECT_EQ(open_count(inst, out.solution), kGoldenOpenFacilities);
}

TEST(GoldenMetrics, FingerprintIndependentOfDeliveryOrder) {
  // For this instance the protocol's behaviour is invariant under inbox
  // reordering, so every delivery order must reproduce the one golden.
  const fl::Instance inst = golden_instance();
  for (auto delivery :
       {net::DeliveryOrder::kBySource, net::DeliveryOrder::kRandomShuffle,
        net::DeliveryOrder::kReverseSource}) {
    core::MwParams params = golden_params();
    params.delivery = delivery;
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    EXPECT_EQ(metrics_fingerprint(out.metrics), kGoldenFingerprint)
        << "delivery=" << static_cast<int>(delivery);
    EXPECT_EQ(open_count(inst, out.solution), kGoldenOpenFacilities);
  }
}

TEST(GoldenMetrics, MwGreedyUnderDropsFailsWithCommittedDiagnostic) {
  // With 15% message drops this protocol fails loudly; the failure point
  // is itself a function of the seeded fault streams, so the diagnostic is
  // part of the golden.
  const fl::Instance inst = golden_instance();
  core::MwParams params = golden_params();
  params.faults.drop_probability = 0.15;
  try {
    (void)core::run_mw_greedy(inst, params);
    FAIL() << "expected CheckError under drops";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("mop-up grant missing for client node 74"),
              std::string::npos)
        << "actual: " << e.what();
  }
}

// The two-stage pipeline under faults. The equivalence sweep compares
// thread counts within one build, so a rounding stage that drew the wrong
// seed streams would be wrong identically everywhere; these pin the
// absolute outputs instead: the solution cost and the fractional value as
// IEEE-754 bit patterns, rounds and messages of each stage, and the mop-up
// and fallback counts. Committed from the build that still ran each stage
// on a network of its own.
std::string pipeline_fingerprint(const fl::Instance& inst,
                                 const core::PipelineOutcome& out) {
  std::ostringstream os;
  os << std::hex << "cost=" << std::bit_cast<std::uint64_t>(
                                   out.solution.cost(inst))
     << " value="
     << std::bit_cast<std::uint64_t>(out.fractional_value) << std::dec
     << " frac=" << out.frac_metrics.rounds << '/'
     << out.frac_metrics.messages << " round=" << out.round_metrics.rounds
     << '/' << out.round_metrics.messages
     << " mopup=" << out.frac_mopup_clients
     << " fallback=" << out.round_fallback_clients;
  return os.str();
}

enum class PipelineFaults { kNone, kReliableDrop, kReliableBurst };

core::MwParams pipeline_params(PipelineFaults faults) {
  core::MwParams params;
  params.k = 4;
  params.seed = 1;
  switch (faults) {
    case PipelineFaults::kNone:
      break;
    case PipelineFaults::kReliableDrop:
      params.reliable = true;
      params.faults.drop_probability = 0.05;
      break;
    case PipelineFaults::kReliableBurst:
      // dflp_cli's --burst-len 4 mapping.
      params.reliable = true;
      params.faults.burst.p_good_to_bad = 0.05;
      params.faults.burst.p_bad_to_good = 0.25;
      break;
  }
  return params;
}

// `generate uniform 40 1`, the instance of the committed trace goldens.
fl::Instance pipeline_uniform_instance() {
  return workload::make_family_instance(workload::Family::kUniform, 40, 1);
}

// A complete-bipartite metric instance: 32 facilities, 96 clients.
fl::Instance pipeline_metric_instance() {
  fl::MetricParams mp;
  mp.facilities = 32;
  mp.clients = 96;
  mp.clusters = 4;
  return fl::make_metric_instance(mp, 1).instance;
}

void expect_pipeline_golden(const fl::Instance& inst, PipelineFaults faults,
                            const std::string& golden) {
  const core::PipelineOutcome out =
      core::run_pipeline(inst, pipeline_params(faults));
  EXPECT_EQ(pipeline_fingerprint(inst, out), golden);
}

TEST(GoldenMetrics, PipelineUniformFaultFree) {
  expect_pipeline_golden(pipeline_uniform_instance(), PipelineFaults::kNone,
                         "cost=40826d8e91fca7ce value=40826d8e91fca7ce "
                         "frac=25/1600 round=26/320 mopup=0 fallback=0");
}

TEST(GoldenMetrics, PipelineUniformReliableDrop) {
  expect_pipeline_golden(pipeline_uniform_instance(),
                         PipelineFaults::kReliableDrop,
                         "cost=40826d8e91fca7ce value=40826d8e91fca7ce "
                         "frac=140/23319 round=158/27856 mopup=0 fallback=0");
}

TEST(GoldenMetrics, PipelineUniformReliableBurst) {
  expect_pipeline_golden(pipeline_uniform_instance(),
                         PipelineFaults::kReliableBurst,
                         "cost=40826d8e91fca7ce value=40826d8e91fca7ce "
                         "frac=333/31271 round=393/38359 mopup=0 fallback=0");
}

TEST(GoldenMetrics, PipelineMetricFaultFree) {
  expect_pipeline_golden(pipeline_metric_instance(), PipelineFaults::kNone,
                         "cost=40d1ab2b228f3b43 value=40d1ab2b228f3b43 "
                         "frac=25/12288 round=34/3072 mopup=0 fallback=0");
}

TEST(GoldenMetrics, PipelineMetricReliableDrop) {
  expect_pipeline_golden(
      pipeline_metric_instance(), PipelineFaults::kReliableDrop,
      "cost=40d1ab2b228f3b43 value=40d1ab2b228f3b43 "
      "frac=152/230261 round=216/370960 mopup=0 fallback=0");
}

TEST(GoldenMetrics, PipelineMetricReliableBurst) {
  expect_pipeline_golden(
      pipeline_metric_instance(), PipelineFaults::kReliableBurst,
      "cost=40d1ab2b228f3b43 value=40d1ab2b228f3b43 "
      "frac=414/292145 round=480/453942 mopup=0 fallback=0");
}

// The channel's own counters under loss: items, retransmissions, ack
// frames, duplicates discarded, and logical and physical rounds. The
// solution and NetMetrics goldens above would not notice a channel change
// that kept them but moved traffic between these counters. Committed
// from the build whose frames parked their headers in a sorted side table.
TEST(GoldenMetrics, MwGreedyChannelStatsUnderLossMatchCommitted) {
  const fl::Instance inst = pipeline_uniform_instance();
  const std::pair<PipelineFaults, const char*> cases[] = {
      {PipelineFaults::kReliableDrop,
       "logical=25 physical=149 items=14432 retx=1407 acks=10015 dups=648 "
       "net=149/24608/546630/29/640/1246"},
      {PipelineFaults::kReliableBurst,
       "logical=25 physical=369 items=14432 retx=13759 acks=17029 dups=6662 "
       "net=369/34215/762470/29/640/11005"},
  };
  for (const auto& [faults, golden] : cases) {
    const core::MwGreedyOutcome out =
        core::run_mw_greedy(inst, pipeline_params(faults));
    EXPECT_EQ(out.transport.to_string() + " net=" +
                  metrics_fingerprint(out.metrics),
              golden)
        << "faults=" << static_cast<int>(faults);
  }
}

}  // namespace
}  // namespace dflp
