// dflp_cli — command-line front end for the library.
//
//   dflp_cli generate <family> <size> <seed>          # instance -> stdout
//   dflp_cli info     <instance.ufl|->                # describe instance
//   dflp_cli solve    <algo> <instance.ufl|-> [k] [seed]
//   dflp_cli sweep    <instance.ufl|->  [seed]        # k sweep table
//   dflp_cli bounds   <instance.ufl|->                # LP / dual bounds
//   dflp_cli stream   <engine> [k] [seed]             # epoch-batched solver
//
// Streaming flags (stream only): `--stream N` sets the total number of
// arrival/departure events, `--epoch-size M` the events batched per
// commit_epoch (default N/100), `--cells C` the number of workload cells,
// `--initial I` the epoch-0 client count, and `--cold` disables warm
// starting (every component re-solves each epoch — the from-scratch
// baseline, bit-identical in cost by construction). One table row per
// epoch, including the recourse columns (opened/closed/reassigned).
//
// `--threads N` (anywhere on the line) runs the distributed simulations
// with an N-thread step phase; results are bit-identical to --threads 1,
// only the wall time changes.
//
// Fault-injection flags (also position-independent): `--drop X` for i.i.d.
// message loss, `--crash-frac X` for boot-crashed facilities,
// `--burst-len N` for Gilbert–Elliott burst loss of mean length N,
// `--fault-seed S` to reseed the fault schedule, and `--reliable` to run
// the recovery transport. With faults active, `solve` also reports round
// dilation against the fault-free baseline.
//
// Tracing flags (solve only): `--trace <path>` writes a round-level trace
// of the distributed run (docs/trace-schema.md), `--trace-format
// jsonl|chrome` picks the exporter, and `--trace-phases` additionally
// records per-node algorithm-phase annotations. Tracing never changes the
// solution — traced runs are bit-identical to untraced ones.
//
// `-` reads the instance from stdin. Families: uniform, euclidean,
// powerlaw, greedy-tight, star, plus the complete-bipartite `metric`
// family (fl/metric.h) that the congested-clique solver requires.
// Algorithms: any name printed by `dflp_cli solve help`.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "core/ftfp_greedy.h"
#include "core/mw_greedy.h"
#include "netsim/trace.h"
#include "fl/capacitated.h"
#include "fl/ftfp.h"
#include "fl/metric.h"
#include "fl/serialize.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/survive.h"
#include "seq/greedy.h"
#include "lp/dual_ascent.h"
#include "lp/ufl_lp.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace {

using namespace dflp;

/// Simulator threads requested via --threads (default 1 = serial).
int g_threads = 1;
/// Fault-injection / recovery flags (position-independent, like --threads).
double g_drop = 0.0;        ///< --drop X: i.i.d. message loss probability
double g_crash_frac = 0.0;  ///< --crash-frac X: boot-crashed facility frac
int g_burst_len = 0;        ///< --burst-len N: mean burst length in rounds
std::uint64_t g_fault_seed = 0;  ///< --fault-seed S
bool g_reliable = false;         ///< --reliable: wrap in ReliableChannel
/// Fault-tolerant placement flags (solve only).
std::int32_t g_coverage = 1;    ///< --coverage R: r_j = R distinct facilities
double g_kill_frac = 0.0;       ///< --kill-frac X: crash X of opened facilities
std::uint64_t g_kill_seed = 0;  ///< --kill-seed S: kill-set sampling seed
std::int32_t g_capacity = 0;    ///< --capacity U: soft capacity (0 = off)
/// Tracing flags (solve only; see docs/trace-schema.md).
std::string g_trace_path;  ///< --trace <path>: write a round-level trace
net::TraceFormat g_trace_format = net::TraceFormat::kJsonl;
bool g_trace_phases = false;  ///< --trace-phases: record phase annotations
/// Streaming flags (stream subcommand only).
std::int64_t g_stream_events = 20000;  ///< --stream N: total events
std::int64_t g_epoch_size = 0;  ///< --epoch-size M (default N/100)
int g_stream_cells = 64;        ///< --cells C: workload cells
int g_stream_initial = 1024;    ///< --initial I: epoch-0 clients
bool g_stream_cold = false;     ///< --cold: disable warm starting

int usage(std::ostream& out = std::cerr, int code = 2) {
  out
      << "usage:\n"
         "  dflp_cli generate <family> <size> <seed>\n"
         "  dflp_cli info   <instance.ufl|->\n"
         "  dflp_cli solve  <algo> <instance.ufl|-> [k=4] [seed=1]\n"
         "  dflp_cli sweep  <instance.ufl|-> [seed=1]\n"
         "  dflp_cli bounds <instance.ufl|->\n"
         "  dflp_cli stream <mw-greedy|mw-pipeline> [k=4] [seed=1]\n"
         "options: --threads N    (simulator step-phase threads; results are\n"
         "                         bit-identical for every N)\n"
         "         --drop X       (i.i.d. per-message drop probability)\n"
         "         --crash-frac X (fraction of facilities crashed at boot)\n"
         "         --burst-len N  (Gilbert-Elliott bursts, mean N rounds)\n"
         "         --fault-seed S (seed of the fault schedule streams)\n"
         "         --reliable     (reliable-transport recovery layer)\n"
         "         --coverage R   (solve, mw-greedy only: fault-tolerant\n"
         "                         placement with R distinct facilities per\n"
         "                         client, via the exclusion-phase solver)\n"
         "         --kill-frac X  (with --coverage: crash a seeded fraction\n"
         "                         X of the opened facilities post-solve and\n"
         "                         report survivability)\n"
         "         --kill-seed S  (kill-set sampling seed; default 0)\n"
         "         --capacity U   (solve, mw-greedy/seq-greedy: soft\n"
         "                         capacity U per facility via the\n"
         "                         c'=c+f/u reduction)\n"
         "         --trace PATH   (solve only: write a round-level trace;\n"
         "                         see docs/trace-schema.md)\n"
         "         --trace-format jsonl|chrome\n"
         "                        (trace exporter; default jsonl)\n"
         "         --trace-phases (record per-node algorithm-phase\n"
         "                         annotations in the trace)\n"
         "         --stream N     (stream only: total events; default 20000)\n"
         "         --epoch-size M (stream only: events per epoch;\n"
         "                         default N/100)\n"
         "         --cells C      (stream only: workload cells; default 64)\n"
         "         --initial I    (stream only: epoch-0 clients;\n"
         "                         default 1024)\n"
         "         --cold         (stream only: from-scratch baseline,\n"
         "                         no warm starting)\n"
         "families: uniform euclidean powerlaw greedy-tight star metric\n"
         "          (metric: planted-cluster complete-bipartite Euclidean\n"
         "           instances — the workload clique-fl requires)\n"
         "algorithms: mw-greedy mw-pipeline ideal-greedy seq-greedy\n"
         "            jain-vazirani mettu-plaxton jms-greedy local-search\n"
         "            open-all nearest-facility li-jms clique-fl\n";
  return code;
}

/// True when any fault/recovery flag changes run semantics.
bool fault_flags_active() {
  return g_drop > 0.0 || g_crash_frac > 0.0 || g_burst_len > 0 || g_reliable;
}

/// Maps the global fault flags onto distributed-run params.
void apply_fault_flags(core::MwParams& params) {
  params.faults.drop_probability = g_drop;
  params.boot_crash_fraction = g_crash_frac;
  if (g_burst_len > 0) {
    // A burst of mean length N rounds: links leave the bad state with
    // probability 1/N per round; entry probability is kept small so losses
    // cluster instead of approximating i.i.d. loss.
    params.faults.burst.p_good_to_bad = 0.05;
    params.faults.burst.p_bad_to_good = 1.0 / g_burst_len;
  }
  params.faults.fault_seed = g_fault_seed;
  params.reliable = g_reliable;
}

fl::Instance load_instance(const std::string& path) {
  if (path == "-") return fl::read_instance(std::cin);
  std::ifstream in(path);
  DFLP_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  try {
    return fl::read_instance(in);
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

std::vector<std::pair<std::string, harness::Algo>> algo_registry() {
  using harness::Algo;
  std::vector<std::pair<std::string, Algo>> reg;
  for (const Algo a :
       {Algo::kMwGreedy, Algo::kPipeline, Algo::kIdealGreedy,
        Algo::kSeqGreedy, Algo::kJainVazirani, Algo::kMettuPlaxton,
        Algo::kJms, Algo::kLocalSearch, Algo::kOpenAll,
        Algo::kNearestFacility, Algo::kLiJms, Algo::kCliqueFl}) {
    reg.emplace_back(harness::algo_name(a), a);
  }
  return reg;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string family_name = argv[2];
  const auto size = static_cast<std::int32_t>(std::atoi(argv[3]));
  const auto seed = static_cast<std::uint64_t>(std::atoll(argv[4]));
  if (size < 4) {
    std::cerr << "size must be >= 4\n";
    return 2;
  }
  if (family_name == "metric") {
    // Planted-cluster complete-bipartite metric instances (fl/metric.h):
    // <size> facilities, 3x<size> clients. check_metric holds by
    // construction; clique-fl and li-jms are the intended consumers.
    fl::MetricParams mp;
    mp.facilities = size;
    mp.clients = 3 * size;
    mp.clusters = std::max<std::int32_t>(2, size / 8);
    fl::write_instance(std::cout,
                       fl::make_metric_instance(mp, seed).instance);
    return 0;
  }
  workload::Family family = workload::Family::kUniform;
  bool found = false;
  for (const auto f : {workload::Family::kUniform,
                       workload::Family::kEuclidean,
                       workload::Family::kPowerLaw,
                       workload::Family::kGreedyTight,
                       workload::Family::kStar}) {
    if (workload::family_name(f) == family_name) {
      family = f;
      found = true;
    }
  }
  if (!found) {
    std::cerr << "unknown family '" << family_name << "'\n";
    return 2;
  }
  fl::write_instance(std::cout,
                     workload::make_family_instance(family, size, seed));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const fl::Instance inst = load_instance(argv[2]);
  std::cout << inst.describe() << "\n"
            << "total opening cost    = "
            << inst.cost_profile().total_opening << "\n"
            << "total connection cost = "
            << inst.cost_profile().total_connection << "\n"
            << "open-all cost         = " << inst.open_all_cost() << "\n";
  return 0;
}

int cmd_bounds(int argc, char** argv) {
  if (argc < 3) return usage();
  const fl::Instance inst = load_instance(argv[2]);
  const lp::DualAscentResult dual = lp::dual_ascent_bound(inst);
  std::cout << "dual-ascent lower bound = " << dual.lower_bound << "\n";
  if (inst.num_edges() <= 400) {
    if (const auto lp_opt = lp::solve_ufl_lp(inst)) {
      std::cout << "exact LP optimum        = " << lp_opt->optimum << "\n";
    }
  } else {
    std::cout << "exact LP optimum        = (instance too large for the "
                 "dense simplex; dual ascent is the certified bound)\n";
  }
  std::cout << "cheapest-edges bound    = "
            << lp::cheapest_connection_bound(inst) << "\n";
  return 0;
}

/// `solve` with --capacity: the soft-capacitated reduction wrapped around
/// a UFL solver (distributed mw-greedy or the centralized greedy).
int solve_capacitated(const std::string& algo_name, const fl::Instance& inst,
                      const core::MwParams& params) {
  if (algo_name != "mw-greedy" && algo_name != "seq-greedy") {
    std::cerr << "--capacity supports mw-greedy and seq-greedy\n";
    return 2;
  }
  fl::SoftCapacitatedInstance cap;
  cap.base = inst;
  cap.capacity.assign(static_cast<std::size_t>(inst.num_facilities()),
                      g_capacity);
  const fl::SoftCapacitatedResult result = fl::solve_soft_capacitated(
      cap, [&](const fl::Instance& reduced) {
        if (algo_name == "seq-greedy")
          return seq::greedy_solve(reduced).solution;
        return core::run_mw_greedy(reduced, params).solution;
      });
  Table table({"algo", "capacity", "cost", "copies", "open", "feasible"});
  int open_count = 0;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i)
    if (result.solution.is_open(i)) ++open_count;
  table.row()
      .cell(algo_name)
      .cell(g_capacity)
      .cell(result.cost, 2)
      .cell(result.total_copies)
      .cell(open_count)
      .cell(result.solution.is_feasible(inst) ? "yes" : "NO");
  harness::print_section(
      "soft-capacitated " + algo_name + " on " + inst.describe(),
      "reduction c'_ij = c_ij + f_i/u_i, u_i = " +
          std::to_string(g_capacity),
      table);
  return 0;
}

/// `solve` with --coverage / --kill-frac: the FTFP exclusion-phase solver,
/// optionally followed by a post-deployment survivability campaign.
int solve_ftfp(const std::string& algo_name, const fl::Instance& inst,
               const core::MwParams& params) {
  if (algo_name != "mw-greedy") {
    std::cerr << "--coverage/--kill-frac support mw-greedy only\n";
    return 2;
  }
  const fl::FtfpInstance ftfp =
      fl::with_uniform_requirement(inst, g_coverage);
  const core::FtfpOutcome out = core::run_ftfp_greedy(ftfp, params);
  Table table({"r", "cost", "open", "phases", "rounds", "messages",
               "feasible"});
  table.row()
      .cell(g_coverage)
      .cell(out.solution.cost(ftfp), 2)
      .cell(out.solution.num_open())
      .cell(out.phases)
      .cell(out.metrics.rounds)
      .cell(out.metrics.messages)
      .cell(out.solution.is_feasible(ftfp) ? "yes" : "NO");
  harness::print_section("ftfp mw-greedy on " + ftfp.describe(), "", table);

  // Survivability: exhaustive single-facility crashes, plus the seeded
  // fractional kill set when --kill-frac is given.
  std::vector<harness::KillSet> kills =
      harness::single_kill_sets(out.solution, ftfp);
  if (g_kill_frac > 0.0) {
    kills.push_back(harness::sample_kill_set(out.solution, ftfp, g_kill_frac,
                                             g_kill_seed));
  }
  const std::vector<harness::SurvivalReport> reports =
      harness::run_survival_campaign(ftfp, out.solution, kills);
  const harness::SurvivalSummary single = harness::summarize(
      {reports.begin(),
       reports.begin() + static_cast<std::ptrdiff_t>(
                             reports.size() - (g_kill_frac > 0.0 ? 1 : 0))});
  Table surv({"kill-set", "killed", "feasible", "orphans", "rerouted",
              "reopened", "cost-ratio"});
  surv.row()
      .cell("single-crash x" + std::to_string(single.kill_sets))
      .cell(1)
      .cell(std::to_string(single.residual_feasible) + "/" +
            std::to_string(single.kill_sets))
      .cell(single.worst_orphans)
      .cell(single.total_rerouted)
      .cell(single.total_reopened)
      .cell(single.worst_cost_ratio, 3);
  if (g_kill_frac > 0.0) {
    const harness::SurvivalReport& r = reports.back();
    surv.row()
        .cell(r.kill_set)
        .cell(r.killed)
        .cell(r.residual_feasible ? "yes" : (r.repaired ? "repaired" : "NO"))
        .cell(r.orphaned_clients)
        .cell(r.rerouted_clients)
        .cell(r.reopened_facilities)
        .cell(r.cost_ratio, 3);
  }
  harness::print_section("survivability of the r=" +
                             std::to_string(g_coverage) + " placement",
                         "single-crash rows aggregate worst case over all "
                         "opened facilities",
                         surv);
  return 0;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string algo_name = argv[2];
  const fl::Instance inst = load_instance(argv[3]);
  core::MwParams params;
  params.k = argc > 4 ? std::atoi(argv[4]) : 4;
  params.seed = argc > 5 ? static_cast<std::uint64_t>(std::atoll(argv[5]))
                         : 1;
  params.num_threads = g_threads;
  apply_fault_flags(params);
  params.trace_path = g_trace_path;
  params.trace_format = g_trace_format;
  params.trace_phases = g_trace_phases;
  if (g_capacity > 0 && (g_coverage > 1 || g_kill_frac > 0.0)) {
    std::cerr << "--capacity cannot be combined with --coverage/--kill-frac\n";
    return 2;
  }
  if (g_capacity > 0) return solve_capacitated(algo_name, inst, params);
  if (g_coverage > 1 || g_kill_frac > 0.0)
    return solve_ftfp(algo_name, inst, params);
  for (const auto& [name, algo] : algo_registry()) {
    if (name == algo_name) {
      const harness::LowerBound lb = harness::compute_lower_bound(inst);
      harness::RunResult r = harness::run_algorithm(algo, inst, params, lb);
      const bool distributed = algo == harness::Algo::kMwGreedy ||
                               algo == harness::Algo::kPipeline ||
                               algo == harness::Algo::kCliqueFl;
      if (distributed && fault_flags_active()) {
        // Round dilation against the fault-free baseline sharing the same
        // transport mode and boot-crash pruning (fault_seed preserved).
        // The baseline is never traced — it must not clobber the trace of
        // the faulted run.
        core::MwParams clean = params;
        clean.faults = net::FaultPlan::Options{};
        clean.faults.fault_seed = params.faults.fault_seed;
        clean.trace_path.clear();
        const harness::RunResult base =
            harness::run_algorithm(algo, inst, clean, lb);
        if (base.rounds > 0) {
          r.round_dilation = static_cast<double>(r.rounds) /
                             static_cast<double>(base.rounds);
        }
      }
      harness::print_section(name + " on " + inst.describe(),
                             "lower bound (" + lb.kind + ") = " +
                                 format_double(lb.value, 2),
                             harness::results_table({r}));
      if (!r.trace_path.empty()) {
        std::cout << "trace ("
                  << net::trace_format_name(params.trace_format)
                  << ") written to " << r.trace_path << "\n";
      } else if (!g_trace_path.empty()) {
        std::cout << "note: --trace applies to the distributed algorithms "
                     "(mw-greedy, mw-pipeline, clique-fl); no trace "
                     "written\n";
      }
      return 0;
    }
  }
  std::cerr << "unknown algorithm '" << algo_name << "'\n";
  return 2;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return usage();
  const fl::Instance inst = load_instance(argv[2]);
  const auto seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 1;
  const harness::LowerBound lb = harness::compute_lower_bound(inst);
  Table table({"k", "cost", "ratio", "rounds", "messages"});
  for (int k : {1, 2, 4, 8, 16, 32, 64}) {
    core::MwParams params;
    params.k = k;
    params.seed = seed;
    params.num_threads = g_threads;
    apply_fault_flags(params);
    const harness::RunResult r = harness::run_algorithm(
        harness::Algo::kMwGreedy, inst, params, lb);
    table.row().cell(k).cell(r.cost, 2).cell(r.ratio, 3).cell(r.rounds).cell(
        r.messages);
  }
  harness::print_section("mw-greedy k sweep on " + inst.describe(),
                         "lower bound (" + lb.kind + ") = " +
                             format_double(lb.value, 2),
                         table);
  return 0;
}

int cmd_stream(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string engine_arg = argv[2];
  service::SolveEngine engine;
  if (engine_arg == "mw-greedy") {
    engine = service::SolveEngine::kMwGreedy;
  } else if (engine_arg == "mw-pipeline") {
    engine = service::SolveEngine::kPipeline;
  } else {
    std::cerr << "stream engine must be mw-greedy or mw-pipeline\n";
    return 2;
  }

  workload::StreamParams sp;
  sp.num_cells = g_stream_cells;
  sp.initial_clients = g_stream_initial;
  const std::int64_t total = g_stream_events;
  const std::int64_t epoch_size =
      g_epoch_size > 0 ? g_epoch_size : std::max<std::int64_t>(1, total / 100);

  service::StreamingOptions opt;
  opt.params.k = argc > 3 ? std::atoi(argv[3]) : 4;
  opt.params.seed =
      argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;
  opt.params.num_threads = g_threads;
  opt.bounds = service::stream_bounds(sp, total);
  opt.engine = engine;
  opt.warm_start = !g_stream_cold;

  workload::ClientStream stream(sp, opt.params.seed);
  service::StreamingSolver solver(stream.initial_snapshot(), opt);
  std::vector<service::EpochReport> reports{solver.last_report()};
  for (std::int64_t remaining = total; remaining > 0;) {
    const auto batch_size =
        static_cast<std::int32_t>(std::min(remaining, epoch_size));
    fl::DeltaLog batch;
    stream.fill_epoch(batch_size, batch);
    for (const fl::Delta& d : batch.deltas()) solver.ingest(d);
    reports.push_back(solver.commit_epoch());
    remaining -= batch_size;
  }

  std::ostringstream subtitle;
  subtitle << total << " events in epochs of " << epoch_size << ", "
           << sp.num_cells << " cells, "
           << (opt.warm_start ? "warm-started" : "from-scratch (--cold)");
  harness::print_section(
      "streaming " + service::engine_name(engine) + " (k=" +
          std::to_string(opt.params.k) + ", seed=" +
          std::to_string(opt.params.seed) + ")",
      subtitle.str(), harness::stream_table(reports));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip position-independent option flags before positional parsing.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--threads") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_threads = std::atoi(v);
      if (g_threads < 1) {
        std::cerr << "--threads must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--drop") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_drop = std::atof(v);
      if (g_drop < 0.0 || g_drop > 1.0) {
        std::cerr << "--drop must be in [0, 1]\n";
        return 2;
      }
      continue;
    }
    if (arg == "--crash-frac") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_crash_frac = std::atof(v);
      if (g_crash_frac < 0.0 || g_crash_frac > 1.0) {
        std::cerr << "--crash-frac must be in [0, 1]\n";
        return 2;
      }
      continue;
    }
    if (arg == "--burst-len") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_burst_len = std::atoi(v);
      if (g_burst_len < 1) {
        std::cerr << "--burst-len must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--fault-seed") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_fault_seed = static_cast<std::uint64_t>(std::atoll(v));
      continue;
    }
    if (arg == "--reliable") {
      g_reliable = true;
      continue;
    }
    if (arg == "--coverage") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_coverage = std::atoi(v);
      if (g_coverage < 1) {
        std::cerr << "--coverage must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--kill-frac") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_kill_frac = std::atof(v);
      if (g_kill_frac < 0.0 || g_kill_frac > 1.0) {
        std::cerr << "--kill-frac must be in [0, 1]\n";
        return 2;
      }
      continue;
    }
    if (arg == "--kill-seed") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_kill_seed = static_cast<std::uint64_t>(std::atoll(v));
      continue;
    }
    if (arg == "--capacity") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_capacity = std::atoi(v);
      if (g_capacity < 1) {
        std::cerr << "--capacity must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--trace") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_trace_path = v;
      continue;
    }
    if (arg == "--trace-format") {
      const char* v = take_value();
      if (v == nullptr || !net::parse_trace_format(v, &g_trace_format)) {
        std::cerr << "--trace-format must be jsonl or chrome\n";
        return 2;
      }
      continue;
    }
    if (arg == "--trace-phases") {
      g_trace_phases = true;
      continue;
    }
    if (arg == "--stream") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_stream_events = std::atoll(v);
      if (g_stream_events < 1) {
        std::cerr << "--stream must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--epoch-size") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_epoch_size = std::atoll(v);
      if (g_epoch_size < 1) {
        std::cerr << "--epoch-size must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--cells") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_stream_cells = std::atoi(v);
      if (g_stream_cells < 1) {
        std::cerr << "--cells must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--initial") {
      const char* v = take_value();
      if (v == nullptr) return usage();
      g_stream_initial = std::atoi(v);
      if (g_stream_initial < 1) {
        std::cerr << "--initial must be >= 1\n";
        return 2;
      }
      continue;
    }
    if (arg == "--cold") {
      g_stream_cold = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "bounds") return cmd_bounds(argc, argv);
    if (cmd == "stream") return cmd_stream(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
