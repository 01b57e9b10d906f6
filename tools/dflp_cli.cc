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
// `solve` still accepts `--threads 1` (anywhere on the line) from older
// command lines; the simulator is serial, so any other value exits 2.
//
// Fault-injection flags (also position-independent): `--drop X` for i.i.d.
// message loss, `--crash-frac X` for boot-crashed facilities,
// `--burst-len N` for Gilbert–Elliott burst loss of mean length N,
// `--fault-seed S` to reseed the fault schedule, and `--reliable` to run
// the recovery transport. With faults active, `solve` also reports round
// dilation against the fault-free baseline. `solve` rejects a fault flag
// its algorithm would ignore (ignored_fault_flags: the centralized
// algorithms take no fault flag and no --trace), and a flag its mode
// would ignore (check_solve_mode_flags): the --capacity and
// --coverage/--kill-frac modes take no --crash-frac and no --trace,
// --kill-seed needs --kill-frac, and the trace options need --trace.
//
// Tracing flags (solve only): `--trace <path>` writes a round-level trace
// of the distributed run (docs/trace-schema.md), `--trace-format
// jsonl|chrome` picks the exporter, and `--trace-phases` additionally
// records per-node algorithm-phase annotations. Tracing never changes the
// solution — traced runs are bit-identical to untraced ones.
//
// Every number on the line, flag value or positional, must parse whole
// and in range: a malformed one (`4x`, `abc`, `nan`) exits 2 naming the
// argument instead of being read as its numeric prefix or as 0. Each flag
// applies only to the subcommands `--help` names for it (kFlagCommands);
// any other subcommand rejects it with exit 2 instead of ignoring it.
//
// `-` reads the instance from stdin. Families: uniform, euclidean,
// powerlaw, greedy-tight, star, plus the complete-bipartite `metric`
// family (fl/metric.h) that the congested-clique solver requires.
// Algorithms: any name printed by `dflp_cli solve help`.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

/// --threads N: accepted by solve for older command lines; only 1 runs.
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
         "options: --threads 1    (solve only: accepted for older command\n"
         "                         lines; the simulator is serial, so any\n"
         "                         other value exits 2)\n"
         "         --drop X       (solve, sweep: i.i.d. per-message drop\n"
         "                         probability)\n"
         "         --crash-frac X (solve, sweep: fraction of facilities\n"
         "                         crashed at boot)\n"
         "         --burst-len N  (solve, sweep: Gilbert-Elliott bursts,\n"
         "                         mean N rounds)\n"
         "         --fault-seed S (solve, sweep: seed of the fault schedule\n"
         "                         streams)\n"
         "         --reliable     (solve, sweep: reliable-transport recovery\n"
         "                         layer)\n"
         "         The fault flags above apply to mw-greedy (solve and\n"
         "         sweep); mw-pipeline takes all but --crash-frac,\n"
         "         clique-fl all but --crash-frac and --reliable, and\n"
         "         the centralized algorithms none of them.\n"
         "         --coverage R   (solve, mw-greedy only: fault-tolerant\n"
         "                         placement with R distinct facilities per\n"
         "                         client, via the exclusion-phase solver)\n"
         "         --kill-frac X  (solve, mw-greedy only: crash a seeded\n"
         "                         fraction X of the opened facilities\n"
         "                         post-solve and report survivability;\n"
         "                         selects the --coverage solver at R = 1\n"
         "                         unless --coverage is given)\n"
         "         --kill-seed S  (solve, with --kill-frac: kill-set sampling\n"
         "                         seed; default 0)\n"
         "         --capacity U   (solve, mw-greedy/seq-greedy: soft\n"
         "                         capacity U per facility via the\n"
         "                         c'=c+f/u reduction)\n"
         "         --capacity, --coverage and --kill-frac runs take\n"
         "         neither --crash-frac nor --trace.\n"
         "         --trace PATH   (solve, mw-greedy/mw-pipeline/clique-fl\n"
         "                         only: write a round-level trace; see\n"
         "                         docs/trace-schema.md)\n"
         "         --trace-format jsonl|chrome\n"
         "                        (solve only, with --trace: trace\n"
         "                         exporter; default jsonl)\n"
         "         --trace-phases (solve only, with --trace: record per-node\n"
         "                         algorithm-phase annotations in the trace)\n"
         "         --stream N     (stream only: total events; default 20000)\n"
         "         --epoch-size M (stream only: events per epoch;\n"
         "                         default N/100)\n"
         "         --cells C      (stream only: workload cells; default 64)\n"
         "         --initial I    (stream only: epoch-0 clients;\n"
         "                         default 1024)\n"
         "         --cold         (stream only: from-scratch baseline,\n"
         "                         no warm starting)\n"
         "         A flag given to a subcommand it does not name exits 2.\n"
         "families: uniform euclidean powerlaw greedy-tight star metric\n"
         "          (metric: planted-cluster complete-bipartite Euclidean\n"
         "           instances — the workload clique-fl requires)\n"
         "algorithms: mw-greedy mw-pipeline ideal-greedy seq-greedy\n"
         "            jain-vazirani mettu-plaxton jms-greedy local-search\n"
         "            open-all nearest-facility li-jms clique-fl\n";
  return code;
}

/// A bad command-line argument: main prints the message — or the usage
/// text when the message is empty (a flag missing its value) — and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The subcommands, as bits, and the ones each option flag applies to; a
/// flag given to any other subcommand is rejected, not silently ignored.
enum : unsigned {
  kGenerate = 1,
  kInfo = 2,
  kSolve = 4,
  kSweep = 8,
  kBounds = 16,
  kStream = 32
};
constexpr std::pair<std::string_view, unsigned> kCommands[] = {
    {"generate", kGenerate}, {"info", kInfo},     {"solve", kSolve},
    {"sweep", kSweep},       {"bounds", kBounds}, {"stream", kStream},
};
constexpr std::pair<std::string_view, unsigned> kFlagCommands[] = {
    {"--threads", kSolve},
    {"--drop", kSolve | kSweep},
    {"--crash-frac", kSolve | kSweep},
    {"--burst-len", kSolve | kSweep},
    {"--fault-seed", kSolve | kSweep},
    {"--reliable", kSolve | kSweep},
    {"--coverage", kSolve},
    {"--kill-frac", kSolve},
    {"--kill-seed", kSolve},
    {"--capacity", kSolve},
    {"--trace", kSolve},
    {"--trace-format", kSolve},
    {"--trace-phases", kSolve},
    {"--stream", kStream},
    {"--epoch-size", kStream},
    {"--cells", kStream},
    {"--initial", kStream},
    {"--cold", kStream},
};

/// Throws UsageError for the first flag on the line that `command` does
/// not apply. An unknown command passes: main prints the usage for it.
void check_flags_apply(const std::vector<std::string_view>& flags,
                       std::string_view command) {
  unsigned bit = 0;
  for (const auto& [name, command_bit] : kCommands)
    if (name == command) bit = command_bit;
  if (bit == 0) return;
  for (const std::string_view flag : flags) {
    for (const auto& [name, commands] : kFlagCommands) {
      if (name == flag && (commands & bit) == 0) {
        throw UsageError(std::string(flag) + " does not apply to " +
                         std::string(command));
      }
    }
  }
}

/// Node ids are int32, so an instance has at most this many facilities
/// and clients together.
constexpr std::int64_t kNodeLimit = std::numeric_limits<std::int32_t>::max();

/// Parses all of `text` as a T in [lo, hi] with std::from_chars: no
/// locale, no leading whitespace or '+', no numeric prefix of a longer
/// word, and no NaN (it fails every range test). `name` is the flag or
/// positional argument the value belongs to, for the error message.
template <typename T>
T parse_number(std::string_view name, std::string_view text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc{} && ptr == end && value >= lo && value <= hi)
    return value;
  std::ostringstream os;
  os << name << " must be "
     << (std::is_floating_point_v<T> ? "a number"
         : std::is_signed_v<T>       ? "an integer"
                                     : "a non-negative integer");
  if (hi < std::numeric_limits<T>::max()) {
    os << " in [" << lo << ", " << hi << "]";
  } else if (lo > std::numeric_limits<T>::lowest()) {
    os << " >= " << lo;
  }
  os << "; got '" << text << "'";
  throw UsageError(os.str());
}

/// The fault and trace flags `solve` rejects for `algo` because its run
/// would ignore them: only mw-greedy runs through the boot-crash harness,
/// clique-fl has no reliable transport, and the centralized algorithms use
/// no network, so they have no rounds to trace either.
std::vector<std::string_view> ignored_fault_flags(harness::Algo algo) {
  switch (algo) {
    case harness::Algo::kMwGreedy:
      return {};
    case harness::Algo::kPipeline:
      return {"--crash-frac"};
    case harness::Algo::kCliqueFl:
      return {"--crash-frac", "--reliable"};
    default:
      return {"--drop", "--crash-frac", "--burst-len", "--fault-seed",
              "--reliable", "--trace"};
  }
}

/// Throws UsageError for a flag that this solve would ignore. The
/// --capacity and --coverage/--kill-frac modes call the core runners
/// directly, so they run no boot crashes and write no trace; --kill-seed
/// acts only beside --kill-frac, and the trace options only beside --trace.
void check_solve_mode_flags(const std::vector<std::string_view>& flags) {
  const auto given = [&](std::string_view flag) {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  };
  const char* const mode = g_capacity > 0      ? "--capacity"
                           : g_coverage > 1    ? "--coverage"
                           : g_kill_frac > 0.0 ? "--kill-frac"
                                               : nullptr;
  for (const std::string_view flag : {"--crash-frac", "--trace"}) {
    if (mode != nullptr && given(flag))
      throw UsageError(std::string(flag) + " does not apply to " + mode);
  }
  constexpr std::pair<std::string_view, std::string_view> kNeeds[] = {
      {"--kill-seed", "--kill-frac"},
      {"--trace-format", "--trace"},
      {"--trace-phases", "--trace"},
  };
  for (const auto& [flag, needed] : kNeeds) {
    if (given(flag) && !given(needed)) {
      throw UsageError(std::string(flag) + " needs " + std::string(needed));
    }
  }
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
  const auto size = parse_number<std::int32_t>("size", argv[3], 4);
  const auto seed = parse_number<std::uint64_t>("seed", argv[4]);
  // Node ids are int32: size the instance in 64 bits before building
  // anything, and name `size` when it takes the instance past the limit.
  const auto check_nodes = [&](std::int64_t facilities, std::int64_t clients) {
    if (facilities + clients <= kNodeLimit) return;
    std::ostringstream os;
    os << "size " << size << " takes the " << family_name
       << " instance past the int32 node limit " << kNodeLimit << " ("
       << facilities << " facilities + " << clients << " clients)";
    throw UsageError(os.str());
  };
  if (family_name == "metric") {
    // Planted-cluster complete-bipartite metric instances (fl/metric.h):
    // <size> facilities, 3x<size> clients. check_metric holds by
    // construction; clique-fl and li-jms are the intended consumers.
    const std::int64_t clients = 3 * std::int64_t{size};
    check_nodes(size, clients);
    fl::MetricParams mp;
    mp.facilities = size;
    mp.clients = static_cast<std::int32_t>(clients);
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
  const workload::FamilyShape shape = workload::family_shape(family, size);
  check_nodes(shape.facilities, shape.clients);
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

int cmd_solve(int argc, char** argv,
              const std::vector<std::string_view>& flags) {
  if (argc < 4) return usage();
  if (g_threads != 1) {
    throw UsageError("--threads must be 1 (the simulator is serial); got " +
                     std::to_string(g_threads));
  }
  const std::string algo_name = argv[2];
  const auto reg = algo_registry();
  const auto entry = std::find_if(reg.begin(), reg.end(), [&](const auto& e) {
    return e.first == algo_name;
  });
  if (entry == reg.end()) {
    std::cerr << "unknown algorithm '" << algo_name << "'\n";
    return 2;
  }
  const harness::Algo algo = entry->second;
  for (const std::string_view ignored : ignored_fault_flags(algo)) {
    if (std::find(flags.begin(), flags.end(), ignored) != flags.end()) {
      throw UsageError(std::string(ignored) + " does not apply to " +
                       algo_name);
    }
  }
  check_solve_mode_flags(flags);
  core::MwParams params;
  params.k = argc > 4 ? parse_number<int>("k", argv[4]) : 4;
  params.seed = argc > 5 ? parse_number<std::uint64_t>("seed", argv[5]) : 1;
  const fl::Instance inst = load_instance(argv[3]);
  apply_fault_flags(params);
  if (g_capacity > 0 && (g_coverage > 1 || g_kill_frac > 0.0)) {
    std::cerr << "--capacity cannot be combined with --coverage/--kill-frac\n";
    return 2;
  }
  if (g_capacity > 0) return solve_capacitated(algo_name, inst, params);
  if (g_coverage > 1 || g_kill_frac > 0.0)
    return solve_ftfp(algo_name, inst, params);
  const harness::LowerBound lb = harness::compute_lower_bound(inst);
  // --trace reaches this point only for a distributed algorithm
  // (ignored_fault_flags, check_solve_mode_flags).
  net::Tracer tracer(g_trace_phases);
  if (!g_trace_path.empty()) params.tracer = &tracer;
  harness::RunResult r = harness::run_algorithm(algo, inst, params, lb);
  if (!g_trace_path.empty()) tracer.write_file(g_trace_path, g_trace_format);
  // Any fault flag left at this point applies to a distributed algorithm.
  if (fault_flags_active()) {
    // Round dilation against the fault-free baseline sharing the same
    // transport mode and boot-crash pruning (fault_seed preserved).
    // The baseline is never traced: the trace is the faulted run's.
    core::MwParams clean = params;
    clean.faults = net::FaultPlan::Options{};
    clean.faults.fault_seed = params.faults.fault_seed;
    clean.tracer = nullptr;
    const harness::RunResult base =
        harness::run_algorithm(algo, inst, clean, lb);
    if (base.rounds > 0) {
      r.round_dilation = static_cast<double>(r.rounds) /
                         static_cast<double>(base.rounds);
    }
  }
  harness::print_section(algo_name + " on " + inst.describe(),
                         "lower bound (" + lb.kind + ") = " +
                             format_double(lb.value, 2),
                         harness::results_table({r}));
  if (!g_trace_path.empty()) {
    std::cout << "trace (" << net::trace_format_name(g_trace_format)
              << ") written to " << g_trace_path << "\n";
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::uint64_t seed =
      argc > 3 ? parse_number<std::uint64_t>("seed", argv[3]) : 1;
  const fl::Instance inst = load_instance(argv[2]);
  const harness::LowerBound lb = harness::compute_lower_bound(inst);
  Table table({"k", "cost", "ratio", "rounds", "messages"});
  for (int k : {1, 2, 4, 8, 16, 32, 64}) {
    core::MwParams params;
    params.k = k;
    params.seed = seed;
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
  // Node ids are int32: size the stream in 64 bits before building
  // anything, and name the flag that takes it past the limit.
  const std::int64_t facilities =
      std::int64_t{sp.num_cells} * sp.facilities_per_cell;
  const auto past_limit = [&](std::string_view flag, std::int64_t value,
                              std::int64_t nodes, const std::string& parts) {
    if (nodes <= kNodeLimit) return;
    std::ostringstream os;
    os << flag << " " << value << " takes the stream past the int32 node "
       << "limit " << kNodeLimit << " (" << parts << ")";
    throw UsageError(os.str());
  };
  past_limit("--cells", sp.num_cells, facilities,
             std::to_string(facilities) + " facilities");
  past_limit("--stream", total, facilities + sp.initial_clients + total,
             std::to_string(facilities) + " facilities + " +
                 std::to_string(sp.initial_clients) + " initial clients + " +
                 std::to_string(total) + " events");
  const std::int64_t epoch_size =
      g_epoch_size > 0 ? g_epoch_size : std::max<std::int64_t>(1, total / 100);

  service::StreamingOptions opt;
  opt.params.k = argc > 3 ? parse_number<int>("k", argv[3]) : 4;
  opt.params.seed = argc > 4 ? parse_number<std::uint64_t>("seed", argv[4]) : 1;
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

/// Strips the position-independent option flags into the globals, listing
/// each in `flags`, and returns the remaining (positional) arguments,
/// argv[0] first — or nothing after --help, which has already printed the
/// usage.
std::optional<std::vector<char*>> parse_flags(
    int argc, char** argv, std::vector<std::string_view>& flags) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) flags.push_back(arg);
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) throw UsageError("");
      return argv[++i];
    };
    if (arg == "--threads") {
      g_threads = parse_number<int>(arg, value(), 1);
    } else if (arg == "--drop") {
      g_drop = parse_number(arg, value(), 0.0, 1.0);
    } else if (arg == "--crash-frac") {
      g_crash_frac = parse_number(arg, value(), 0.0, 1.0);
    } else if (arg == "--burst-len") {
      g_burst_len = parse_number<int>(arg, value(), 1);
    } else if (arg == "--fault-seed") {
      g_fault_seed = parse_number<std::uint64_t>(arg, value());
    } else if (arg == "--reliable") {
      g_reliable = true;
    } else if (arg == "--coverage") {
      g_coverage = parse_number<std::int32_t>(arg, value(), 1);
    } else if (arg == "--kill-frac") {
      g_kill_frac = parse_number(arg, value(), 0.0, 1.0);
    } else if (arg == "--kill-seed") {
      g_kill_seed = parse_number<std::uint64_t>(arg, value());
    } else if (arg == "--capacity") {
      g_capacity = parse_number<std::int32_t>(arg, value(), 1);
    } else if (arg == "--trace") {
      g_trace_path = value();
    } else if (arg == "--trace-format") {
      if (i + 1 >= argc || !net::parse_trace_format(argv[++i], &g_trace_format))
        throw UsageError("--trace-format must be jsonl or chrome");
    } else if (arg == "--trace-phases") {
      g_trace_phases = true;
    } else if (arg == "--stream") {
      g_stream_events = parse_number<std::int64_t>(arg, value(), 1);
    } else if (arg == "--epoch-size") {
      g_epoch_size = parse_number<std::int64_t>(arg, value(), 1);
    } else if (arg == "--cells") {
      g_stream_cells = parse_number<int>(arg, value(), 1);
    } else if (arg == "--initial") {
      g_stream_initial = parse_number<int>(arg, value(), 1);
    } else if (arg == "--cold") {
      g_stream_cold = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout, 0);
      return std::nullopt;
    } else {
      args.push_back(argv[i]);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string_view> flags;
    std::optional<std::vector<char*>> args = parse_flags(argc, argv, flags);
    if (!args) return 0;  // --help
    if (args->size() < 2) return usage();
    argc = static_cast<int>(args->size());
    argv = args->data();
    const std::string cmd = argv[1];
    check_flags_apply(flags, cmd);
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "solve") return cmd_solve(argc, argv, flags);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "bounds") return cmd_bounds(argc, argv);
    if (cmd == "stream") return cmd_stream(argc, argv);
  } catch (const UsageError& e) {
    if (*e.what() == '\0') return usage();
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
