// Delivery-order and fault-mode sweep for the step/commit round engine.
//
// For every delivery order and fault plan — i.i.d. drops, burst loss,
// crash schedules, duplication, with or without the ReliableChannel
// recovery layer — each distributed entry point must keep producing the
// execution committed here: the same solutions, the same NetMetrics, and
// (when a protocol fails loudly under faults) the same CheckError text.
// Each case's fingerprint is pinned as a committed FNV-1a hash, recorded
// from the engine that also checked it equal at 1, 2, 4 and 8 step
// threads, so an engine rewrite that shifts any case shows here.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/ftfp_greedy.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "fl/ftfp.h"
#include "netsim/trace.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace dflp {
namespace {

std::string metrics_fingerprint(const net::NetMetrics& m) {
  std::ostringstream os;
  os << m.rounds << '/' << m.messages << '/' << m.total_bits << '/'
     << m.max_message_bits << '/' << m.max_messages_in_round << '/'
     << m.dropped;
  return os.str();
}

std::string solution_fingerprint(const fl::Instance& inst,
                                 const fl::IntegralSolution& sol) {
  std::ostringstream os;
  os << "open:";
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    os << (sol.is_open(i) ? '1' : '0');
  os << " assign:";
  for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
    os << sol.assignment(j) << ',';
  return os.str();
}

/// Runs `body` and folds its result — or the CheckError it throws — into a
/// single comparable trace string. Under fault injection the protocols are
/// allowed to fail loudly, but they must fail with the committed
/// diagnostic.
template <typename Body>
std::string outcome_trace(Body&& body) {
  try {
    return body();
  } catch (const CheckError& e) {
    return std::string("CheckError: ") + e.what();
  }
}

/// Fault/transport configuration of one sweep case.
enum class FaultMode {
  kFaultFree,   ///< no faults, no ReliableChannel
  kDrops,       ///< i.i.d. drops, no recovery: fails loudly, identically
  kBurstCrash,  ///< burst loss + crash schedule, no recovery: deterministic
  kRecovered,   ///< drops + duplication under the ReliableChannel
};

struct SweepCase {
  net::DeliveryOrder delivery;
  FaultMode mode;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  std::string name;
  switch (info.param.delivery) {
    case net::DeliveryOrder::kBySource: name = "BySource"; break;
    case net::DeliveryOrder::kRandomShuffle: name = "RandomShuffle"; break;
    case net::DeliveryOrder::kReverseSource: name = "ReverseSource"; break;
  }
  switch (info.param.mode) {
    case FaultMode::kFaultFree: name += "_FaultFree"; break;
    case FaultMode::kDrops: name += "_Drops"; break;
    case FaultMode::kBurstCrash: name += "_BurstCrash"; break;
    case FaultMode::kRecovered: name += "_Recovered"; break;
  }
  return name;
}

/// FNV-1a over a fingerprint string, for compact committed goldens.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Committed FNV-1a hashes of one test's serial fingerprint, by case name.
using CaseHashes = std::map<std::string, std::uint64_t>;

/// Checks the serial fingerprint `trace` of sweep case `c` against its
/// committed hash. The source location of a failed check is left out: it
/// moves with every edit of the throwing file, the diagnostic does not.
void expect_case_hash(const SweepCase& c, const std::string& trace,
                      const CaseHashes& golden) {
  const std::string name = case_name(testing::TestParamInfo<SweepCase>(c, 0));
  const std::string located = without_check_location(trace);
  EXPECT_EQ(fnv1a(located), golden.at(name)) << name << ": " << located;
}

/// Maps a sweep case onto MwParams. The kDrops stream must keep producing
/// the committed drop diagnostic, so its knob stays exactly the legacy
/// drop_probability = 0.15.
core::MwParams sweep_params(const SweepCase& c, int k, std::uint64_t seed) {
  core::MwParams params;
  params.k = k;
  params.seed = seed;
  params.delivery = c.delivery;
  switch (c.mode) {
    case FaultMode::kFaultFree:
      break;
    case FaultMode::kDrops:
      params.faults.drop_probability = 0.15;
      break;
    case FaultMode::kBurstCrash:
      params.faults.burst.p_good_to_bad = 0.05;
      params.faults.burst.p_bad_to_good = 0.5;
      params.faults.crashes = {{0, 6}, {3, 9}};
      params.faults.random_crash_fraction = 0.05;
      params.faults.random_crash_round = 4;
      params.faults.random_crash_round_span = 8;
      params.faults.fault_seed = 23;
      break;
    case FaultMode::kRecovered:
      params.reliable = true;
      params.faults.drop_probability = 0.15;
      params.faults.duplicate_probability = 0.05;
      params.faults.fault_seed = 23;
      break;
  }
  return params;
}

/// mw-greedy's and then the pipeline's fingerprint of one solve of `inst`
/// each under `params` (or the CheckError each throws).
std::string greedy_and_pipeline_trace(const fl::Instance& inst,
                                      const core::MwParams& params) {
  const std::string greedy = outcome_trace([&] {
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    return solution_fingerprint(inst, out.solution) + " | " +
           metrics_fingerprint(out.metrics);
  });
  const std::string pipeline = outcome_trace([&] {
    const core::PipelineOutcome out = core::run_pipeline(inst, params);
    std::ostringstream os;
    os << solution_fingerprint(inst, out.solution) << " | frac "
       << out.fractional_value << " | "
       << metrics_fingerprint(out.frac_metrics) << " | "
       << metrics_fingerprint(out.round_metrics);
    return os.str();
  });
  return greedy + " || " + pipeline;
}

class EngineEquivalenceTest : public testing::TestWithParam<SweepCase> {};

// Committed golden for the MwGreedy sweep configuration (uniform family,
// 60 facilities, instance seed 7; k=4, engine seed 11). The pre-arena
// per-inbox transport and the flat-arena transport both produce exactly
// this fingerprint for every delivery order, and the same drop-failure
// diagnostic.
constexpr char kMwGreedyGoldenMetrics[] = "25/773/6184/8/456/0";
constexpr char kMwGreedyGoldenDropDiagnostic[] =
    "mop-up grant missing for client node 18";

TEST_P(EngineEquivalenceTest, MwGreedyMatchesCommittedGolden) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const auto run_trace = [&] {
    return outcome_trace([&] {
      core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/11);
      const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
      return solution_fingerprint(inst, out.solution) + " | " +
             metrics_fingerprint(out.metrics);
    });
  };
  const std::string trace = run_trace();
  switch (GetParam().mode) {
    case FaultMode::kFaultFree:
      EXPECT_NE(trace.find(kMwGreedyGoldenMetrics), std::string::npos)
          << trace;
      break;
    case FaultMode::kDrops:
      EXPECT_NE(trace.find("CheckError"), std::string::npos) << trace;
      EXPECT_NE(trace.find(kMwGreedyGoldenDropDiagnostic), std::string::npos)
          << trace;
      break;
    case FaultMode::kBurstCrash:
      // No committed golden: the protocol has no failure detector, so the
      // only contract is bit-identical behaviour — pin trace stability.
      EXPECT_EQ(trace, run_trace());
      break;
    case FaultMode::kRecovered: {
      // The recovery layer must reproduce the fault-free solution exactly.
      core::MwParams clean;
      clean.k = 4;
      clean.seed = 11;
      clean.delivery = GetParam().delivery;
      const core::MwGreedyOutcome baseline =
          core::run_mw_greedy(inst, clean);
      EXPECT_NE(trace.find(solution_fingerprint(inst, baseline.solution)),
                std::string::npos)
          << trace;
      EXPECT_EQ(trace.find("CheckError"), std::string::npos) << trace;
      break;
    }
  }
}

// Fingerprint committed in golden_metrics_test.cc (uniform family, 80
// facilities, instance seed 13; k=4, engine seed 17). The SoA arena must
// reproduce it under every delivery order, and the unrecovered drop stream
// must keep failing with the committed diagnostic everywhere.
constexpr char kSoAGoldenMetrics[] = "29/1005/8040/8/592/0";
constexpr char kSoAGoldenDropDiagnostic[] =
    "mop-up grant missing for client node 74";

TEST_P(EngineEquivalenceTest, SoAArenaReproducesCommittedGoldenEverywhere) {
  if (GetParam().mode != FaultMode::kFaultFree &&
      GetParam().mode != FaultMode::kDrops)
    GTEST_SKIP() << "golden is pinned for the fault-free and drop streams";
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 80, 13);
  const std::string trace = outcome_trace([&] {
    core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/17);
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    return metrics_fingerprint(out.metrics);
  });
  if (GetParam().mode == FaultMode::kFaultFree) {
    EXPECT_EQ(trace, kSoAGoldenMetrics);
  } else {
    EXPECT_NE(trace.find("CheckError"), std::string::npos) << trace;
    EXPECT_NE(trace.find(kSoAGoldenDropDiagnostic), std::string::npos)
        << trace;
  }
}

TEST_P(EngineEquivalenceTest, MwGreedyFingerprintMatchesCommittedHash) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const std::string trace = outcome_trace([&] {
    core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/11);
    const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
    return solution_fingerprint(inst, out.solution) + " | " +
           metrics_fingerprint(out.metrics);
  });
  const CaseHashes golden = {
      {"BySource_FaultFree", 6696572142523782535ULL},
      {"RandomShuffle_FaultFree", 6696572142523782535ULL},
      {"ReverseSource_FaultFree", 6696572142523782535ULL},
      {"BySource_Drops", 17327247308403368370ULL},
      {"RandomShuffle_Drops", 17327247308403368370ULL},
      {"ReverseSource_Drops", 16878408832201328587ULL},
      {"BySource_BurstCrash", 18269986995912777249ULL},
      {"RandomShuffle_BurstCrash", 18269986995912777249ULL},
      {"ReverseSource_BurstCrash", 18269986995912777249ULL},
      {"BySource_Recovered", 1604167066118618154ULL},
      {"RandomShuffle_Recovered", 1604167066118618154ULL},
      {"ReverseSource_Recovered", 1604167066118618154ULL},
  };
  expect_case_hash(GetParam(), trace, golden);
}

TEST_P(EngineEquivalenceTest, PipelineFingerprintMatchesCommittedHash) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kPowerLaw, 50, 3);
  const std::string trace = outcome_trace([&] {
    core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/5);
    const core::PipelineOutcome out = core::run_pipeline(inst, params);
    std::ostringstream os;
    os << solution_fingerprint(inst, out.solution) << " | frac "
       << out.fractional_value << " | "
       << metrics_fingerprint(out.frac_metrics) << " | "
       << metrics_fingerprint(out.round_metrics);
    return os.str();
  });
  const CaseHashes golden = {
      {"BySource_FaultFree", 14376291352770582455ULL},
      {"RandomShuffle_FaultFree", 14376291352770582455ULL},
      {"ReverseSource_FaultFree", 14376291352770582455ULL},
      {"BySource_Drops", 12986163176569938375ULL},
      {"RandomShuffle_Drops", 12986163176569938375ULL},
      {"ReverseSource_Drops", 12986163176569938375ULL},
      {"BySource_BurstCrash", 525169650562583614ULL},
      {"RandomShuffle_BurstCrash", 525169650562583614ULL},
      {"ReverseSource_BurstCrash", 525169650562583614ULL},
      {"BySource_Recovered", 7495639607916384280ULL},
      {"RandomShuffle_Recovered", 7495639607916384280ULL},
      {"ReverseSource_Recovered", 7495639607916384280ULL},
  };
  expect_case_hash(GetParam(), trace, golden);
}

TEST_P(EngineEquivalenceTest, FtfpFingerprintMatchesCommittedHash) {
  // The exclusion-phase solver is r_max unmodified engine runs, so it
  // inherits the engine contract wholesale: for every delivery order and
  // fault plan — including mid-run crash-stops, where the protocol fails
  // loudly — the whole multi-phase solve (or its CheckError text) is
  // pinned.
  const fl::FtfpInstance inst = fl::with_uniform_requirement(
      workload::make_family_instance(workload::Family::kUniform, 60, 7), 2);
  const std::string trace = outcome_trace([&] {
    core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/11);
    const core::FtfpOutcome out = core::run_ftfp_greedy(inst, params);
    std::ostringstream os;
    os << out.solution.fingerprint(inst) << " | phases " << out.phases;
    for (const net::NetMetrics& m : out.phase_metrics)
      os << " | " << metrics_fingerprint(m);
    return os.str();
  });
  // The fault-free and recovered configurations must complete both
  // phases; the unrecovered fault streams must fail loudly.
  if (GetParam().mode == FaultMode::kFaultFree ||
      GetParam().mode == FaultMode::kRecovered) {
    EXPECT_NE(trace.find("phases 2"), std::string::npos) << trace;
  } else {
    EXPECT_NE(trace.find("CheckError"), std::string::npos) << trace;
  }
  const CaseHashes golden = {
      {"BySource_FaultFree", 14486908863044959487ULL},
      {"RandomShuffle_FaultFree", 14486908863044959487ULL},
      {"ReverseSource_FaultFree", 14486908863044959487ULL},
      {"BySource_Drops", 17327247308403368370ULL},
      {"RandomShuffle_Drops", 17327247308403368370ULL},
      {"ReverseSource_Drops", 16878408832201328587ULL},
      {"BySource_BurstCrash", 18269986995912777249ULL},
      {"RandomShuffle_BurstCrash", 18269986995912777249ULL},
      {"ReverseSource_BurstCrash", 18269986995912777249ULL},
      {"BySource_Recovered", 8919783346559228006ULL},
      {"RandomShuffle_Recovered", 8919783346559228006ULL},
      {"ReverseSource_Recovered", 8919783346559228006ULL},
  };
  expect_case_hash(GetParam(), trace, golden);
}

TEST_P(EngineEquivalenceTest, FtfpRecoveredMatchesFaultFreePlacement) {
  // Placement-level redundancy and transport-level recovery must commute:
  // the recovered lossy FTFP run returns the fault-free placement exactly.
  if (GetParam().mode != FaultMode::kRecovered) GTEST_SKIP();
  const fl::FtfpInstance inst = fl::with_uniform_requirement(
      workload::make_family_instance(workload::Family::kUniform, 60, 7), 2);
  core::MwParams clean;
  clean.k = 4;
  clean.seed = 11;
  clean.delivery = GetParam().delivery;
  const core::FtfpOutcome golden = core::run_ftfp_greedy(inst, clean);

  core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/11);
  const core::FtfpOutcome out = core::run_ftfp_greedy(inst, params);
  EXPECT_EQ(out.solution.fingerprint(inst),
            golden.solution.fingerprint(inst));
  EXPECT_GT(out.metrics.dropped, 0u);
}

/// Deterministic trace payload: every field except wall-clock timings and
/// the delivery path, which the trace goldens and the Network.* cases pin.
std::string trace_payload_fingerprint(const net::Tracer& tracer) {
  std::ostringstream os;
  for (const net::TraceSection& s : tracer.sections())
    os << s.name << ':' << s.nodes << ':' << s.edges << ':' << s.seed << ':'
       << s.bit_budget << ';';
  for (const net::TraceRound& r : tracer.rounds()) {
    os << '\n'
       << r.section << '/' << r.round << '/' << r.live << '/' << r.sent << '/'
       << r.delivered << '/' << r.dropped << '/' << r.duplicated << '/'
       << r.crashed << '/' << r.halted << '/' << r.bits << '/' << r.max_bits
       << '/' << r.arena;
    for (const auto& [label, count] : r.phases)
      os << '/' << label << '=' << count;
  }
  return os.str();
}

// Tracing is a pure observation layer: attaching a Tracer (with phase
// capture, the most invasive configuration) must not change solutions,
// metrics, fault-coin streams, or failure diagnostics — and the
// deterministic part of the trace itself is pinned by a committed hash.
// Runs that fail loudly under faults keep the rounds recorded before the
// throw, which are pinned too.
TEST_P(EngineEquivalenceTest, MwGreedyTracingIsPureObservation) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 60, 7);
  const auto run = [&](net::Tracer* tracer) {
    return outcome_trace([&] {
      core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/11);
      params.tracer = tracer;
      const core::MwGreedyOutcome out = core::run_mw_greedy(inst, params);
      return solution_fingerprint(inst, out.solution) + " | " +
             metrics_fingerprint(out.metrics);
    });
  };
  net::Tracer tracer(/*capture_phases=*/true);
  EXPECT_EQ(run(&tracer), run(nullptr));
  const CaseHashes golden = {
      {"BySource_FaultFree", 16485266013129012632ULL},
      {"RandomShuffle_FaultFree", 16485266013129012632ULL},
      {"ReverseSource_FaultFree", 16485266013129012632ULL},
      {"BySource_Drops", 5081501556028055614ULL},
      {"RandomShuffle_Drops", 7034993435186404938ULL},
      {"ReverseSource_Drops", 16937372184924270791ULL},
      {"BySource_BurstCrash", 4290345521372547700ULL},
      {"RandomShuffle_BurstCrash", 4290345521372547700ULL},
      {"ReverseSource_BurstCrash", 4290345521372547700ULL},
      {"BySource_Recovered", 10228977260096345092ULL},
      {"RandomShuffle_Recovered", 10228977260096345092ULL},
      {"ReverseSource_Recovered", 10228977260096345092ULL},
  };
  expect_case_hash(GetParam(), trace_payload_fingerprint(tracer), golden);
}

TEST_P(EngineEquivalenceTest, PipelineTracingIsPureObservation) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kPowerLaw, 50, 3);
  const auto run = [&](net::Tracer* tracer) {
    return outcome_trace([&] {
      core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/5);
      params.tracer = tracer;
      const core::PipelineOutcome out = core::run_pipeline(inst, params);
      return solution_fingerprint(inst, out.solution) + " | " +
             metrics_fingerprint(out.frac_metrics) + " | " +
             metrics_fingerprint(out.round_metrics);
    });
  };
  net::Tracer tracer(/*capture_phases=*/true);
  EXPECT_EQ(run(&tracer), run(nullptr));
  // The pipeline labels one section per stage it reaches.
  if (GetParam().mode == FaultMode::kFaultFree) {
    ASSERT_GE(tracer.sections().size(), 2u);
    EXPECT_EQ(tracer.sections()[0].name, "frac-lp");
    EXPECT_EQ(tracer.sections()[1].name, "rand-round");
  }
  const CaseHashes golden = {
      {"BySource_FaultFree", 10903123896570953080ULL},
      {"RandomShuffle_FaultFree", 10903123896570953080ULL},
      {"ReverseSource_FaultFree", 10903123896570953080ULL},
      {"BySource_Drops", 3350972349813785034ULL},
      {"RandomShuffle_Drops", 3350972349813785034ULL},
      {"ReverseSource_Drops", 3350972349813785034ULL},
      {"BySource_BurstCrash", 15765097582571665655ULL},
      {"RandomShuffle_BurstCrash", 15765097582571665655ULL},
      {"ReverseSource_BurstCrash", 15765097582571665655ULL},
      {"BySource_Recovered", 8875129689734221345ULL},
      {"RandomShuffle_Recovered", 8875129689734221345ULL},
      {"ReverseSource_Recovered", 8875129689734221345ULL},
  };
  expect_case_hash(GetParam(), trace_payload_fingerprint(tracer), golden);
}

// Stream-shaped case: one cell component (4 facilities, 10 clients) solved
// under the schedule the streaming service pins for the 100k-client
// benchmark stream. That ladder is sized for the whole stream, so the cell
// idles through most of its rounds: its nodes sleep after round 0 and the
// engine skips to the first rung that admits a star. mw-greedy and the
// pipeline must reproduce the fingerprints the engine produced before
// nodes could sleep (hashes of the trace, with the source location of a
// failed check left out).
TEST_P(EngineEquivalenceTest, StreamCellSkipsRoundsBitIdentically) {
  workload::StreamParams cell;
  cell.num_cells = 1;
  cell.initial_clients = 10;
  workload::ClientStream stream(cell, /*seed=*/5);
  const fl::Instance& inst = stream.initial_snapshot().instance();
  workload::StreamParams whole = cell;
  whole.num_cells = 10000;
  whole.initial_clients = 100000;
  const core::MwSchedule pinned = core::derive_schedule_from_bounds(
      service::stream_bounds(whole, 10'000'000),
      sweep_params(GetParam(), /*k=*/4, /*seed=*/3));
  const auto run = [&] {
    core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/3);
    params.pinned_schedule = &pinned;
    return greedy_and_pipeline_trace(inst, params);
  };
  const CaseHashes golden = {
      {"BySource_FaultFree", 16139520221499770484ULL},
      {"RandomShuffle_FaultFree", 16139520221499770484ULL},
      {"ReverseSource_FaultFree", 16139520221499770484ULL},
      {"BySource_Drops", 17950527811781921894ULL},
      {"RandomShuffle_Drops", 1164272126540461602ULL},
      {"ReverseSource_Drops", 10721923413367433278ULL},
      {"BySource_BurstCrash", 9036787743354858066ULL},
      {"RandomShuffle_BurstCrash", 9036787743354858066ULL},
      {"ReverseSource_BurstCrash", 9036787743354858066ULL},
      {"BySource_Recovered", 11279084889822077510ULL},
      {"RandomShuffle_Recovered", 11279084889822077510ULL},
      {"ReverseSource_Recovered", 11279084889822077510ULL},
  };
  expect_case_hash(GetParam(), run(), golden);

  if (GetParam().mode != FaultMode::kFaultFree) return;
  // The skips themselves, as the trace names them.
  net::Tracer tracer;
  core::MwParams params = sweep_params(GetParam(), /*k=*/4, /*seed=*/3);
  params.pinned_schedule = &pinned;
  params.tracer = &tracer;
  (void)core::run_mw_greedy(inst, params);
  std::size_t skipped = 0;
  for (const net::TraceRound& r : tracer.rounds())
    skipped += r.path == net::TracePath::kSkip ? 1 : 0;
  EXPECT_EQ(tracer.rounds().size(), 29u);
  EXPECT_EQ(skipped, 23u);
}

// Complete-bipartite case: a euclidean instance links every client to
// every facility (8 × 40), so core::build_bipartite_adjacency fills the
// network's rows directly instead of transposing the cost-sorted edge
// lists. The hashes were recorded from the transposing builder, so they
// pin the filled network to the transposed one under every delivery order
// and fault mode; fault coins are drawn per copy in adjacency order, so a
// reordered neighbour list would shift the fault streams too.
TEST_P(EngineEquivalenceTest, CompleteBipartiteMatchesCommittedHash) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kEuclidean, 40, 5);
  ASSERT_EQ(inst.num_edges(),
            static_cast<std::size_t>(inst.num_facilities()) *
                static_cast<std::size_t>(inst.num_clients()));
  const std::string trace = greedy_and_pipeline_trace(
      inst, sweep_params(GetParam(), /*k=*/4, /*seed=*/7));
  const CaseHashes golden = {
      {"BySource_FaultFree", 5561620361115318964ULL},
      {"RandomShuffle_FaultFree", 5561620361115318964ULL},
      {"ReverseSource_FaultFree", 5561620361115318964ULL},
      {"BySource_Drops", 3377693770703231484ULL},
      {"RandomShuffle_Drops", 6803728355874875347ULL},
      {"ReverseSource_Drops", 13312967030922082034ULL},
      {"BySource_BurstCrash", 2531979844339419974ULL},
      {"RandomShuffle_BurstCrash", 2531979844339419974ULL},
      {"ReverseSource_BurstCrash", 2531979844339419974ULL},
      {"BySource_Recovered", 9574534820525358263ULL},
      {"RandomShuffle_Recovered", 9574534820525358263ULL},
      {"ReverseSource_Recovered", 9574534820525358263ULL},
  };
  expect_case_hash(GetParam(), trace, golden);
}

INSTANTIATE_TEST_SUITE_P(
    AllDeliveryAndFaultModes, EngineEquivalenceTest,
    testing::Values(
        SweepCase{net::DeliveryOrder::kBySource, FaultMode::kFaultFree},
        SweepCase{net::DeliveryOrder::kRandomShuffle, FaultMode::kFaultFree},
        SweepCase{net::DeliveryOrder::kReverseSource, FaultMode::kFaultFree},
        SweepCase{net::DeliveryOrder::kBySource, FaultMode::kDrops},
        SweepCase{net::DeliveryOrder::kRandomShuffle, FaultMode::kDrops},
        SweepCase{net::DeliveryOrder::kReverseSource, FaultMode::kDrops},
        SweepCase{net::DeliveryOrder::kBySource, FaultMode::kBurstCrash},
        SweepCase{net::DeliveryOrder::kRandomShuffle, FaultMode::kBurstCrash},
        SweepCase{net::DeliveryOrder::kReverseSource, FaultMode::kBurstCrash},
        SweepCase{net::DeliveryOrder::kBySource, FaultMode::kRecovered},
        SweepCase{net::DeliveryOrder::kRandomShuffle, FaultMode::kRecovered},
        SweepCase{net::DeliveryOrder::kReverseSource, FaultMode::kRecovered}),
    case_name);

}  // namespace
}  // namespace dflp
