// Real-workload benchmark driver for dflp (see perfbench/README.md).
//
// One process with one operation in flight and simulator threads = 1 runs
// one named closed-loop workload:
//
//   * set-up, repeated kSetups times: inputs, certified lower bounds and
//     warm-up ops. setup_s is the median; every repetition must reproduce
//     the first one's (cost, rounds, messages) fingerprints.
//   * --trace 0, the timed phase: ops back to back for --seconds, each
//     output checked outside the op's latency window; prints the
//     end-to-end metrics.
//   * --trace 1, the traced phase: untraced and traced ops alternate on the
//     same inputs for --seconds; prints the per-layer metrics and writes a
//     span file, self times per span name and the tracing overhead.
//
// Spans come from this file only, around each call into a layer, plus the
// net::Tracer round records the solvers return through the public
// MwParams::tracer and CliqueFlParams::tracer hooks. The last line of
// standard output is the result object.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "core/bipartite.h"
#include "core/clique_fl.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "fl/metric.h"
#include "fl/serialize.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "lp/dual_ascent.h"
#include "netsim/trace.h"
#include "service/streaming_solver.h"
#include "workload/generators.h"
#include "workload/stream.h"

extern char** environ;

namespace {

using namespace dflp;
using Clock = std::chrono::steady_clock;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kSetups = 3;           ///< set-up repetitions per run
constexpr int kRefKernelReps = 3;    ///< kernel runs at run start and end
constexpr std::uint64_t kEngineSeed = 1;  ///< `dflp_cli solve`'s default
constexpr int kK = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;  ///< dflp_cli binary (cli-solve-20k only)
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  /// Reduced sizes, for the benchmark's own test.
  bool small = false;
  /// Op index whose expected output is corrupted, for the benchmark's own
  /// test: that op must be counted as failed.
  std::int64_t inject_mismatch = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--cli") {
      a.cli = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--git-sha") {
      a.git_sha = value();
    } else if (flag == "--small") {
      a.small = true;
    } else if (flag == "--inject-mismatch") {
      a.inject_mismatch = std::stoll(value());
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile `p` (1..100) of `v`.
double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::max<std::size_t>(
      1, (static_cast<std::size_t>(p) * v.size() + 99) / 100);
  return v[rank - 1];
}

/// The highest integer percentile with at least ten samples beyond it
/// (nearest rank). Below twenty samples that percentile would fall under
/// the median, so the tail is then the maximum.
int tail_percentile(std::size_t n) {
  return n < 20 ? 100 : static_cast<int>(100 * (n - 10) / n);
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since run start
  double end_ms = 0.0;
  int parent = -1;  ///< index in the log; -1 for a root
  std::int64_t op = -1;
  /// Duration measured, position laid out: Tracer round records carry
  /// durations but no timestamps, so round spans are packed back to back
  /// from the start of their solver span.
  bool packed = false;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now_ms() const {
    return ms_between(origin_, Clock::now());
  }
  int open(std::string name, int parent, std::int64_t op) {
    const double t = now_ms();
    return add({std::move(name), t, t, parent, op, false});
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
  }
  int add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
  }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ms - s.start_ms;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                            s.end_ms);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = p.start_ms;
    double hi = p.start_ms;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ms);
      b = std::min(b, p.end_ms);
      if (b <= a) continue;
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    self[i] = (p.end_ms - p.start_ms) - covered;
  }
  return self;
}

/// Per-op values of the per-layer metrics, filled by a traced op.
using Layers = std::map<std::string, double>;

/// What a traced op records into.
struct Trace {
  SpanLog& log;
  std::int64_t op;
  Layers layers;
};

/// Opens a span when the op is traced and closes it on close() or scope
/// exit; does nothing for an untraced op.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, int parent)
      : log_(trace != nullptr ? &trace->log : nullptr),
        id_(trace != nullptr ? trace->log.open(name, parent, trace->op)
                             : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;
  ~ScopedSpan() { close(); }

  void close() {
    if (log_ != nullptr) log_->close(id_);
    log_ = nullptr;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Sums of a traced op's Tracer round records.
struct NetTotals {
  double rounds = 0;
  double node_steps = 0;
  double idle_rounds = 0;  ///< rounds in which no node sent anything
  double sent = 0;
  double delivered = 0;
  double bits = 0;
  double step_ms = 0;
  double commit_ms = 0;
  double scatter_ms = 0;
  double arena_peak = 0;

  void export_to(Layers& layers) const {
    layers["netsim.rounds"] = rounds;
    layers["netsim.node_steps"] = node_steps;
    layers["netsim.idle_rounds"] = idle_rounds;
    layers["netsim.msgs_per_node_step"] =
        node_steps > 0 ? sent / node_steps : 0.0;
    layers["netsim.step_ms"] = step_ms;
    layers["netsim.commit_ms"] = commit_ms;
    layers["netsim.scatter_ms"] = scatter_ms;
    layers["netsim.messages"] = delivered;
    layers["netsim.kbits"] = bits / 1000.0;
    layers["netsim.arena_peak"] = arena_peak;
  }
};

/// Turns the tracer's round records into netsim.round spans under the
/// solver span `parent`, each with step / commit / scatter children, and
/// adds their counters to `totals`. Returns the rounds' summed duration.
double add_round_spans(SpanLog& log, int parent, std::int64_t op,
                       const net::Tracer& tracer, NetTotals& totals) {
  double t = log.spans()[static_cast<std::size_t>(parent)].start_ms;
  const double start = t;
  for (const net::TraceRound& r : tracer.rounds()) {
    const double step = r.step_s * 1e3;
    const double commit = r.commit_s * 1e3;
    const double scatter = r.scatter_s * 1e3;
    const int round = log.add(
        {"netsim.round", t, t + step + commit + scatter, parent, op, true});
    log.add({"netsim.step", t, t + step, round, op, true});
    log.add({"netsim.commit", t + step, t + step + commit, round, op, true});
    log.add({"netsim.scatter", t + step + commit, t + step + commit + scatter,
             round, op, true});
    t += step + commit + scatter;
    totals.rounds += 1;
    totals.node_steps += static_cast<double>(r.live);
    totals.idle_rounds += r.sent == 0 ? 1 : 0;
    totals.sent += static_cast<double>(r.sent);
    totals.delivered += static_cast<double>(r.delivered);
    totals.bits += static_cast<double>(r.bits);
    totals.step_ms += step;
    totals.commit_ms += commit;
    totals.scatter_ms += scatter;
    totals.arena_peak =
        std::max(totals.arena_peak, static_cast<double>(r.arena));
  }
  return t - start;
}

/// Builds the op's bipartite network standalone, as the solvers do before
/// their rounds, in a root span of its own after the op.
void trace_network_build(Trace& trace, const fl::Instance& inst) {
  const int span =
      trace.log.open("netsim.make_bipartite_network", -1, trace.op);
  net::Network::Options options;
  options.bit_budget = net::congest_bit_budget(
      static_cast<std::size_t>(inst.num_facilities() + inst.num_clients()));
  const net::Network network = core::make_bipartite_network(inst, options);
  trace.log.close(span);
  trace.layers["netsim.build_ms"] = trace.log.duration(span);
}

// ---------------------------------------------------------------------------
// Host reference kernel: fixed work unrelated to dflp, timed at run start
// and end so a reader can tell host drift from a program change.

double ref_kernel_ms() {
  std::vector<std::uint64_t> keys(1U << 19);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  const double ms = ms_between(t0, Clock::now());
  DFLP_CHECK(std::is_sorted(keys.begin(), keys.end()));
  return ms;
}

std::vector<double> ref_kernel_runs() {
  std::vector<double> v;
  for (int i = 0; i < kRefKernelReps; ++i) v.push_back(ref_kernel_ms());
  return v;
}

// ---------------------------------------------------------------------------
// Workloads

/// What a repeated op on the same input must reproduce bit for bit.
struct Fingerprint {
  double cost = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "(cost " << std::setprecision(17) << f.cost << ", rounds "
            << f.rounds << ", messages " << f.messages << ")";
}

/// The paper's outputs, averaged over a workload's distinct inputs; they
/// repeat exactly for a given seed.
struct Quality {
  double cost_ratio = 0.0;
  double sim_rounds = 0.0;
  double sim_messages = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Checks made once per run, outside the timed set-up.
  virtual void check_once(std::vector<std::string>& /*problems*/) {}
  /// Builds the inputs, their bounds and the warm-up ops; returns the
  /// warm-up fingerprints, which every repetition must reproduce. Output
  /// checks that fail are appended to `problems`.
  virtual std::vector<Fingerprint> setup(
      std::vector<std::string>& problems) = 0;
  /// Distinct inputs: op i runs on input i mod slots(), so every run
  /// averages the same inputs whatever its op count.
  [[nodiscard]] virtual std::size_t slots() const { return 1; }
  /// One op on input `slot`; returns its latency in ms, checks excluded.
  /// Throws when the op or a check of its output fails. A non-null `trace`
  /// makes it a traced op; `inject` corrupts its expected output.
  virtual double op(std::size_t slot, Trace* trace, bool inject) = 0;
  [[nodiscard]] virtual Quality quality() const = 0;
  /// Peak resident memory of the process doing the work.
  [[nodiscard]] virtual double peak_rss_mb() const {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
  /// False when the traced op is not the untraced op with tracing on, so
  /// their latency gap is no tracing overhead.
  [[nodiscard]] virtual bool traced_op_is_same_op() const { return true; }
};

void expect_fingerprint(const Fingerprint& got, Fingerprint want,
                        bool inject) {
  if (inject) want.rounds += 1;
  DFLP_CHECK_MSG(got == want, "fingerprint mismatch: got "
                                  << got << ", set-up op gave " << want);
}

void expect_feasible(const fl::IntegralSolution& sol, const fl::Instance& inst,
                     const char* who) {
  std::string why;
  DFLP_CHECK_MSG(sol.is_feasible(inst, &why),
                 who << " returned an infeasible solution: " << why);
}

// --- cli-solve-20k ---------------------------------------------------------

struct ChildRun {
  int status = -1;
  std::string out;
  long maxrss_kb = 0;
};

/// Runs argv[0] with stdout captured and waits for it to end.
ChildRun run_child(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
  cargv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  ChildRun run;
  char buf[1 << 14];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got > 0) {
      run.out.append(buf, static_cast<std::size_t>(got));
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  close(fds[0]);
  rusage ru{};
  while (wait4(pid, &run.status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.maxrss_kb = ru.ru_maxrss;
  return run;
}

/// The first data row of the markdown table whose first column is
/// `first_header`, keyed by column name.
std::map<std::string, std::string> table_row(const std::string& text,
                                             const std::string& first_header) {
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream in(line);
    std::string cell;
    while (std::getline(in, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    if (!cells.empty() && cells.front().empty()) cells.erase(cells.begin());
    return cells;
  };
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> headers;
  while (std::getline(in, line)) {
    if (line.rfind('|', 0) != 0) continue;
    const std::vector<std::string> cells = split(line);
    if (headers.empty()) {
      if (!cells.empty() && cells.front() == first_header) headers = cells;
      continue;
    }
    if (line.rfind("|-", 0) == 0) continue;
    DFLP_CHECK_MSG(cells.size() == headers.size(),
                   "row has " << cells.size() << " cells for "
                              << headers.size() << " columns");
    std::map<std::string, std::string> row;
    for (std::size_t i = 0; i < cells.size(); ++i) row[headers[i]] = cells[i];
    return row;
  }
  DFLP_CHECK_MSG(false, "no table with a '" << first_header
                                            << "' column in the output");
  return {};
}

const std::string& column(const std::map<std::string, std::string>& row,
                          const std::string& name) {
  const auto it = row.find(name);
  DFLP_CHECK_MSG(it != row.end(), "no '" << name << "' column");
  return it->second;
}

/// One op is one `dflp_cli solve mw-greedy <file> 4 1` child process; the
/// traced op replays the CLI's calls in-process on the same file.
class CliSolve final : public Workload {
 public:
  /// Four, because each input costs a 4.7 MB file, a dual ascent and a CLI
  /// solve in every set-up.
  static constexpr std::size_t kInputs = 4;

  explicit CliSolve(const Args& args) : args_(args) {
    DFLP_CHECK_MSG(!args.cli.empty(), "cli-solve-20k needs --cli");
  }

  std::vector<Fingerprint> setup(std::vector<std::string>& problems) override {
    slots_.clear();
    std::vector<Fingerprint> fps;
    for (std::size_t p = 0; p < kInputs; ++p) {
      Slot s;
      const fl::Instance inst = workload::make_family_instance(
          workload::Family::kUniform, args_.small ? 2000 : 20000,
          args_.seed * 100 + p);
      s.path = args_.out_dir + "/cli-input" + (args_.small ? "-small-" : "-") +
               std::to_string(p) + ".ufl";
      {
        std::ofstream out(s.path);
        fl::write_instance(out, inst);
        out.close();
        DFLP_CHECK_MSG(!out.fail(), "cannot write " << s.path);
      }
      s.bytes = static_cast<double>(std::filesystem::file_size(s.path));
      s.lb = harness::compute_lower_bound(inst);
      try {
        s.expect = solve_with_cli(s).fp;
      } catch (const std::exception& e) {
        problems.push_back(e.what());
      }
      fps.push_back(s.expect);
      slots_.push_back(std::move(s));
    }
    return fps;
  }

  double op(std::size_t slot, Trace* trace, bool inject) override {
    const Slot& s = slots_[slot];
    if (trace != nullptr) return replay(s, *trace, inject);
    const CliRun run = solve_with_cli(s);
    expect_fingerprint(run.fp, s.expect, inject);
    last_cli_ms_ = run.ms;
    return run.ms;
  }

  [[nodiscard]] Quality quality() const override {
    Quality q;
    for (const Slot& s : slots_) {
      q.cost_ratio += s.expect.cost / s.lb.value;
      q.sim_rounds += static_cast<double>(s.expect.rounds);
      q.sim_messages += static_cast<double>(s.expect.messages);
    }
    const auto n = static_cast<double>(slots_.size());
    return {q.cost_ratio / n, q.sim_rounds / n, q.sim_messages / n};
  }

  [[nodiscard]] std::size_t slots() const override { return kInputs; }
  [[nodiscard]] double peak_rss_mb() const override {
    return static_cast<double>(peak_rss_kb_) / 1024.0;
  }
  [[nodiscard]] bool traced_op_is_same_op() const override { return false; }

 private:
  struct Slot {
    std::string path;
    double bytes = 0.0;
    harness::LowerBound lb;
    Fingerprint expect;
  };
  struct CliRun {
    double ms = 0.0;
    Fingerprint fp;
  };

  /// Runs the CLI on `s` and checks its output; throws when a check fails.
  CliRun solve_with_cli(const Slot& s) {
    const auto t0 = Clock::now();
    const ChildRun child = run_child({args_.cli, "solve", "mw-greedy", s.path,
                                      std::to_string(kK),
                                      std::to_string(kEngineSeed),
                                      "--threads", "1"});
    const double ms = ms_between(t0, Clock::now());
    peak_rss_kb_ = std::max(peak_rss_kb_, child.maxrss_kb);
    DFLP_CHECK_MSG(WIFEXITED(child.status) && WEXITSTATUS(child.status) == 0,
                   "dflp_cli exited with wait status " << child.status);
    const auto row = table_row(child.out, "algorithm");
    DFLP_CHECK_MSG(column(row, "algorithm") == "mw-greedy",
                   "row is for '" << column(row, "algorithm") << "'");
    const Fingerprint fp{std::stod(column(row, "cost")),
                         std::stoull(column(row, "rounds")),
                         std::stoull(column(row, "messages"))};
    // The CLI prints the cost rounded to two decimals.
    DFLP_CHECK_MSG(fp.cost >= s.lb.value - 0.005,
                   "cost " << fp.cost << " is below the certified bound "
                           << s.lb.value);
    return {ms, fp};
  }

  /// The CLI's calls in-process: read_instance, compute_lower_bound,
  /// run_algorithm, results_table.
  double replay(const Slot& s, Trace& trace, bool inject) {
    const std::int64_t op_id = trace.op;
    SpanLog& log = trace.log;
    net::Tracer tracer;
    core::MwParams params;
    params.k = kK;
    params.seed = kEngineSeed;
    params.num_threads = 1;
    params.tracer = &tracer;

    const auto t0 = Clock::now();
    ScopedSpan root(&trace, "op", -1);
    ScopedSpan parse(&trace, "fl.read_instance", root.id());
    fl::Instance inst;
    {
      std::ifstream in(s.path);
      DFLP_CHECK_MSG(in.good(), "cannot open '" << s.path << "'");
      inst = fl::read_instance(in);
    }
    parse.close();
    ScopedSpan bound(&trace, "lp.compute_lower_bound", root.id());
    const harness::LowerBound lb = harness::compute_lower_bound(inst);
    bound.close();
    ScopedSpan run(&trace, "harness.run_algorithm", root.id());
    const harness::RunResult result =
        harness::run_algorithm(harness::Algo::kMwGreedy, inst, params, lb);
    run.close();
    ScopedSpan report(&trace, "harness.results_table", root.id());
    const std::string table = harness::results_table({result}).to_markdown();
    report.close();
    root.close();
    const double ms = ms_between(t0, Clock::now());

    NetTotals totals;
    const double round_ms =
        add_round_spans(log, run.id(), op_id, tracer, totals);
    totals.export_to(trace.layers);
    trace_network_build(trace, inst);

    Layers& l = trace.layers;
    l["fl.parse_ms"] = log.duration(parse.id());
    l["fl.parse_mb_per_s"] = s.bytes / 1e6 / (log.duration(parse.id()) / 1e3);
    l["lp.bound_ms"] = log.duration(bound.id());
    l["harness.run_algorithm_ms"] = log.duration(run.id());
    // mw-greedy runs inside harness::run_algorithm here.
    l["core.mw_greedy_ms"] = log.duration(run.id());
    l["core.solver_self_ms"] = log.duration(run.id()) - round_ms;
    const double layer_sum = log.duration(parse.id()) +
                             log.duration(bound.id()) +
                             log.duration(run.id()) +
                             log.duration(report.id());
    l["tools.cli_overhead_ms"] = last_cli_ms_ - layer_sum;

    DFLP_CHECK_MSG(!table.empty(), "empty results table");
    DFLP_CHECK_MSG(lb.value == s.lb.value,
                   "re-parsed instance gave bound " << lb.value << ", not "
                                                    << s.lb.value);
    expect_fingerprint({std::stod(format_double(result.cost, 2)),
                        result.rounds, result.messages},
                       s.expect, inject);
    return ms;
  }

  const Args& args_;
  std::vector<Slot> slots_;
  long peak_rss_kb_ = 0;
  /// Latency of the last CLI op; the traced phase replays its input next.
  double last_cli_ms_ = 0.0;
};

// --- metric-h2h-256 --------------------------------------------------------

/// One op is the E15 head-to-head on one planted-cluster metric instance:
/// mw-greedy, the LP pipeline and the congested-clique solver, all at k=4.
class MetricH2h final : public Workload {
 public:
  /// Cost and messages vary by about 5% between instances; eight of them
  /// keep a run's averages steady across seeds.
  static constexpr std::size_t kInputs = 8;

  explicit MetricH2h(const Args& args) : args_(args) {}

  std::vector<Fingerprint> setup(std::vector<std::string>& problems) override {
    slots_.clear();
    std::vector<Fingerprint> fps;
    const std::int32_t m = args_.small ? 32 : 256;
    for (std::size_t p = 0; p < kInputs; ++p) {
      // The instance `dflp_cli generate metric <m> <seed>` writes, with its
      // sites kept for the clique solver's side channel.
      fl::MetricParams mp;
      mp.facilities = m;
      mp.clients = 3 * m;
      mp.clusters = std::max<std::int32_t>(2, m / 8);
      Slot s{fl::make_metric_instance(mp, args_.seed * 100 + p), {}, {}};
      s.lb = harness::compute_lower_bound(s.minst.instance);
      try {
        s.expect = solve(s, nullptr).fps;
      } catch (const std::exception& e) {
        problems.push_back(e.what());
      }
      fps.insert(fps.end(), s.expect.begin(), s.expect.end());
      slots_.push_back(std::move(s));
    }
    return fps;
  }

  double op(std::size_t slot, Trace* trace, bool inject) override {
    const Slot& s = slots_[slot];
    const Solved solved = solve(s, trace);
    for (std::size_t i = 0; i < solved.fps.size(); ++i)
      expect_fingerprint(solved.fps[i], s.expect[i], inject && i == 0);
    return solved.ms;
  }

  [[nodiscard]] Quality quality() const override {
    Quality q;
    for (const Slot& s : slots_) {
      for (const Fingerprint& f : s.expect) {
        q.cost_ratio += f.cost / s.lb.value / 3.0;
        q.sim_rounds += static_cast<double>(f.rounds);
        q.sim_messages += static_cast<double>(f.messages);
      }
    }
    const auto n = static_cast<double>(slots_.size());
    return {q.cost_ratio / n, q.sim_rounds / n, q.sim_messages / n};
  }

  [[nodiscard]] std::size_t slots() const override { return kInputs; }

 private:
  struct Slot {
    fl::MetricInstance minst;
    harness::LowerBound lb;
    std::array<Fingerprint, 3> expect;
  };
  struct Solved {
    double ms = 0.0;
    std::array<Fingerprint, 3> fps;
  };

  /// Runs the three solvers and checks their solutions (feasible, cost at
  /// least the certified bound).
  Solved solve(const Slot& s, Trace* trace) const {
    const fl::Instance& inst = s.minst.instance;
    net::Tracer greedy_tracer;
    net::Tracer pipeline_tracer;
    net::Tracer clique_tracer;
    core::MwParams greedy;
    greedy.k = kK;
    greedy.seed = kEngineSeed;
    greedy.num_threads = 1;
    core::MwParams pipeline = greedy;
    core::CliqueFlParams clique;
    clique.seed = kEngineSeed;
    clique.num_threads = 1;
    if (trace != nullptr) {
      greedy.tracer = &greedy_tracer;
      pipeline.tracer = &pipeline_tracer;
      clique.tracer = &clique_tracer;
    }

    const auto t0 = Clock::now();
    ScopedSpan root(trace, "op", -1);
    ScopedSpan g_span(trace, "core.run_mw_greedy", root.id());
    const core::MwGreedyOutcome g = core::run_mw_greedy(inst, greedy);
    g_span.close();
    ScopedSpan p_span(trace, "core.run_pipeline", root.id());
    const core::PipelineOutcome p = core::run_pipeline(inst, pipeline);
    p_span.close();
    ScopedSpan c_span(trace, "core.run_clique_fl", root.id());
    const core::CliqueFlOutcome c = core::run_clique_fl(s.minst, clique);
    c_span.close();
    root.close();

    const double ms = ms_between(t0, Clock::now());

    if (trace != nullptr) {
      SpanLog& log = trace->log;
      NetTotals totals;
      double self = 0.0;
      for (const auto& [span, tracer] :
           {std::pair<int, const net::Tracer*>{g_span.id(), &greedy_tracer},
            {p_span.id(), &pipeline_tracer},
            {c_span.id(), &clique_tracer}}) {
        self += log.duration(span) -
                add_round_spans(log, span, trace->op, *tracer, totals);
      }
      totals.export_to(trace->layers);
      trace->layers["core.mw_greedy_ms"] = log.duration(g_span.id());
      trace->layers["core.pipeline_ms"] = log.duration(p_span.id());
      trace->layers["core.clique_fl_ms"] = log.duration(c_span.id());
      trace->layers["core.solver_self_ms"] = self;
      trace_network_build(*trace, inst);
    }

    expect_feasible(g.solution, inst, "mw-greedy");
    expect_feasible(p.solution, inst, "mw-pipeline");
    expect_feasible(c.solution, inst, "clique-fl");
    const Solved out{ms,
                     {{{g.solution.cost(inst), g.metrics.rounds,
                        g.metrics.messages},
                       {p.solution.cost(inst), p.total_rounds(),
                        p.total_messages()},
                       {c.solution.cost(inst), c.metrics.rounds,
                        c.metrics.messages}}}};
    for (const Fingerprint& f : out.fps)
      DFLP_CHECK_MSG(f.cost >= s.lb.value, "cost " << f.cost
                                                   << " is below the "
                                                      "certified bound "
                                                   << s.lb.value);
    return out;
  }

  const Args& args_;
  std::vector<Slot> slots_;
};

// --- stream-1pct-100k ------------------------------------------------------

/// One op is one streaming epoch: ClientStream::fill_epoch, ingest, then a
/// warm-started StreamingSolver::commit_epoch with mw-greedy at k=4.
///
/// The ops replay a fixed cycle of epochs from the state after the epoch-0
/// solve, restored between cycles outside any op's latency. Every run thus
/// measures the same 100k-client service whatever its op count. A stream
/// left to run on grows by a tenth of its events, and its epochs slowed by
/// about 30% over a 30 s run, so a faster program would have measured a
/// larger instance.
class Stream1pct final : public Workload {
 public:
  /// Declared event budget for the service's capacity bounds, as a
  /// long-running service would declare it; a cycle emits far fewer.
  static constexpr std::int64_t kMaxEvents = 10'000'000;

  explicit Stream1pct(const Args& args)
      : args_(args),
        epoch_size_(args.small ? 20 : 1000),
        // Odd, so the traced run's alternating untraced and traced ops
        // each cover every epoch of the cycle.
        cycle_(args.small ? 3 : 7) {
    sp_.num_cells = args.small ? 200 : 10000;
    sp_.facilities_per_cell = 4;
    sp_.initial_clients = args.small ? 2000 : 100000;
    sp_.client_degree = 3;
  }

  /// The E13 warm-equals-cold identity: a cold twin over the cycle gives
  /// the costs every warm set-up must reproduce.
  void check_once(std::vector<std::string>& /*problems*/) override {
    workload::ClientStream stream(sp_, args_.seed);
    service::StreamingSolver cold(stream.initial_snapshot(), options(false));
    cold_costs_ = {cold.last_report().cost};
    for (int e = 0; e < cycle_; ++e) {
      fl::DeltaLog batch;
      stream.fill_epoch(epoch_size_, batch);
      for (const fl::Delta& d : batch.deltas()) cold.ingest(d);
      cold_costs_.push_back(cold.commit_epoch().cost);
    }
  }

  /// The epoch-0 solve, then one pass over the cycle, whose outputs every
  /// replayed epoch must reproduce.
  std::vector<Fingerprint> setup(std::vector<std::string>& problems) override {
    // Free the previous set-up's states first, so they do not add to the
    // peak resident memory.
    live_.reset();
    base_.reset();
    workload::ClientStream stream(sp_, args_.seed);
    service::StreamingSolver solver(stream.initial_snapshot(), options(true));
    base_.emplace(State{std::move(stream), std::move(solver)});
    live_.emplace(*base_);
    std::vector<service::EpochReport> reports{live_->solver.last_report()};
    for (int e = 0; e < cycle_; ++e) {
      try {
        run_epoch(nullptr);
      } catch (const std::exception& ex) {
        problems.push_back(ex.what());
      }
      reports.push_back(live_->solver.last_report());
    }
    next_ = static_cast<std::size_t>(cycle_);  // the first op restores
    std::vector<Fingerprint> fps;
    Quality q;
    for (std::size_t e = 0; e < reports.size(); ++e) {
      const service::EpochReport& r = reports[e];
      fps.push_back({r.cost, r.rounds, r.messages});
      if (e < cold_costs_.size() && r.cost != cold_costs_[e]) {
        std::ostringstream why;
        why << std::setprecision(17) << "epoch " << e << ": warm cost "
            << r.cost << " != cold cost " << cold_costs_[e];
        problems.push_back(why.str());
      }
      if (e > 0) {
        q.sim_rounds += static_cast<double>(r.rounds) / cycle_;
        q.sim_messages += static_cast<double>(r.messages) / cycle_;
      }
    }
    expect_.assign(fps.begin() + 1, fps.end());
    const harness::LowerBound lb =
        harness::compute_lower_bound(live_->solver.snapshot().instance());
    q.cost_ratio = reports.back().cost / lb.value;
    quality_ = q;
    return fps;
  }

  double op(std::size_t /*slot*/, Trace* trace, bool inject) override {
    if (next_ == expect_.size()) {
      live_.emplace(*base_);
      next_ = 0;
    }
    const std::size_t epoch = next_++;
    const auto [ms, rep] = run_epoch(trace);
    expect_fingerprint({rep.cost, rep.rounds, rep.messages}, expect_[epoch],
                       inject);
    return ms;
  }

  [[nodiscard]] Quality quality() const override { return quality_; }

 private:
  struct State {
    workload::ClientStream stream;
    service::StreamingSolver solver;
  };
  struct Epoch {
    double ms = 0.0;
    service::EpochReport report;
  };

  /// Runs the live state's next epoch and checks its solution (feasible,
  /// cost at least a certified bound).
  Epoch run_epoch(Trace* trace) {
    workload::ClientStream& stream = live_->stream;
    service::StreamingSolver& solver = live_->solver;
    const auto t0 = Clock::now();
    ScopedSpan root(trace, "op", -1);
    fl::DeltaLog batch;
    ScopedSpan gen(trace, "workload.fill_epoch", root.id());
    stream.fill_epoch(epoch_size_, batch);
    gen.close();
    ScopedSpan ingest(trace, "service.ingest", root.id());
    for (const fl::Delta& d : batch.deltas()) solver.ingest(d);
    ingest.close();
    ScopedSpan commit(trace, "service.commit_epoch", root.id());
    const service::EpochReport rep = solver.commit_epoch();
    commit.close();
    root.close();
    const double ms = ms_between(t0, Clock::now());

    if (trace != nullptr) {
      // commit_epoch applies the batch, then resolves; its report times
      // both.
      SpanLog& log = trace->log;
      const Span c = log.spans()[static_cast<std::size_t>(commit.id())];
      const double apply_end = std::min(c.end_ms, c.start_ms + rep.apply_ms);
      log.add({"service.apply", c.start_ms, apply_end, commit.id(), trace->op,
               false});
      log.add({"service.resolve", apply_end,
               std::min(c.end_ms, apply_end + rep.solve_ms), commit.id(),
               trace->op, false});
      Layers& l = trace->layers;
      l["service.apply_ms"] = rep.apply_ms;
      l["service.resolve_ms"] = rep.solve_ms;
      l["service.components"] = static_cast<double>(rep.components);
      l["service.solved_components"] =
          static_cast<double>(rep.solved_components);
      l["service.dirty_share"] =
          rep.components > 0 ? static_cast<double>(rep.solved_components) /
                                   static_cast<double>(rep.components)
                             : 0.0;
      l["service.events"] = static_cast<double>(rep.events);
      l["workload.gen_ms"] = log.duration(gen.id());
    }

    const fl::Instance& inst = solver.snapshot().instance();
    DFLP_CHECK_MSG(rep.events == static_cast<std::size_t>(epoch_size_),
                   "epoch applied " << rep.events << " events, not "
                                    << epoch_size_);
    expect_feasible(solver.solution(), inst, "the streaming solver");
    // A dual ascent per epoch would cost more than the epoch.
    const double bound = lp::cheapest_connection_bound(inst);
    DFLP_CHECK_MSG(rep.cost >= bound, "epoch cost " << rep.cost
                                                    << " is below the bound "
                                                    << bound);
    return {ms, rep};
  }

  [[nodiscard]] service::StreamingOptions options(bool warm) const {
    service::StreamingOptions opt;
    opt.params.k = kK;
    opt.params.seed = kEngineSeed;
    opt.params.num_threads = 1;
    opt.bounds = service::stream_bounds(sp_, kMaxEvents);
    opt.engine = service::SolveEngine::kMwGreedy;
    opt.warm_start = warm;
    return opt;
  }

  const Args& args_;
  workload::StreamParams sp_;
  std::int32_t epoch_size_;
  int cycle_;  ///< epochs per replayed cycle
  std::vector<double> cold_costs_;
  std::optional<State> base_;  ///< after the epoch-0 solve
  std::optional<State> live_;
  std::vector<Fingerprint> expect_;  ///< per epoch of the cycle
  std::size_t next_ = 0;             ///< the live state's next epoch
  Quality quality_;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "cli-solve-20k") return std::make_unique<CliSolve>(args);
  if (args.workload == "metric-h2h-256")
    return std::make_unique<MetricH2h>(args);
  if (args.workload == "stream-1pct-100k")
    return std::make_unique<Stream1pct>(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

// ---------------------------------------------------------------------------
// Phases

/// The timed phase is cut into this many windows of equal length. On the
/// shared host this benchmark was written on, contention from outside the
/// process comes in phases of seconds to minutes that slow every op by up
/// to 1.6x; it only ever adds time. A window is quiet when its median is
/// within kQuietSlack of the lowest window median. The end-to-end timings
/// come from the ops of the quiet windows, and the record lists every
/// window. Of the settings tried on saved runs (10, 20 or 30 windows; 10%
/// to 30% slack), this one gave the smallest spread across seeds.
constexpr int kWindows = 30;
constexpr double kQuietSlack = 1.20;

struct Phase {
  std::vector<double> latencies;         ///< untraced ops that passed
  std::vector<double> traced_latencies;  ///< traced ops that passed
  /// Latencies of the untraced ops that passed, by the window they
  /// started in.
  std::array<std::vector<double>, kWindows> windows;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few reasons
  std::map<std::string, std::vector<double>> layer_samples;
};

/// Timing of one window of the timed phase.
struct WindowStats {
  std::size_t ops = 0;
  double p50_ms = 0.0;
  bool quiet = false;
};

/// Every non-empty window's timing, and the latencies of the quiet ones.
struct QuietOps {
  std::vector<WindowStats> windows;
  std::vector<double> latencies;
};

QuietOps quiet_ops(const Phase& phase) {
  double lowest = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& win : phase.windows)
    if (!win.empty()) lowest = std::min(lowest, median(win));
  QuietOps q;
  for (const std::vector<double>& win : phase.windows) {
    if (win.empty()) continue;
    const double p50 = median(win);
    const bool quiet = p50 <= kQuietSlack * lowest;
    q.windows.push_back({win.size(), p50, quiet});
    if (quiet) q.latencies.insert(q.latencies.end(), win.begin(), win.end());
  }
  return q;
}

/// Ops over their summed latency, so checks and restores between ops do
/// not count.
double ops_per_s(const std::vector<double>& latencies) {
  double busy_ms = 0.0;
  for (const double ms : latencies) busy_ms += ms;
  return busy_ms > 0.0 ? static_cast<double>(latencies.size()) / busy_ms * 1e3
                       : 0.0;
}

/// Runs one op and books it; returns whether it passed.
bool book_op(Workload& w, const Args& args, std::size_t slot, Trace* trace,
             int window, Phase& phase) {
  const bool inject = phase.attempted == args.inject_mismatch;
  ++phase.attempted;
  try {
    const double ms = w.op(slot, trace, inject);
    if (trace != nullptr) {
      phase.traced_latencies.push_back(ms);
    } else {
      phase.latencies.push_back(ms);
      phase.windows[static_cast<std::size_t>(window)].push_back(ms);
    }
    return true;
  } catch (const std::exception& e) {
    ++phase.failed;
    if (phase.failures.size() < 5) phase.failures.push_back(e.what());
    return false;
  }
}

Phase timed_phase(Workload& w, const Args& args) {
  Phase phase;
  const auto start = Clock::now();
  const double window_ms = args.seconds * 1e3 / kWindows;
  for (std::size_t i = 0;; ++i) {
    const auto window = static_cast<int>(
        std::floor(ms_between(start, Clock::now()) / window_ms));
    if (window >= kWindows) break;
    book_op(w, args, i % w.slots(), nullptr, window, phase);
  }
  return phase;
}

/// Untraced and traced ops alternate, each pair on the same input (on the
/// stream, on consecutive epochs of its odd cycle), so the tracing overhead
/// and the CLI's overhead over its own calls are measured under the same
/// host conditions.
Phase traced_phase(Workload& w, const Args& args, SpanLog& log) {
  Phase phase;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    book_op(w, args, i % w.slots(), nullptr, 0, phase);
    Trace trace{log, phase.attempted, {}};
    if (book_op(w, args, i % w.slots(), &trace, 0, phase))
      for (const auto& [name, value] : trace.layers)
        phase.layer_samples[name].push_back(value);
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics and output

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; the benchmark's own test checks it.
constexpr std::array<MetricSpec, 8> kEndToEnd{{
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},
    {"cost_ratio", "x"},
    {"sim_rounds", "rounds"},
    {"sim_messages", "messages"},
}};

constexpr std::array<MetricSpec, 28> kPerLayer{{
    {"fl.parse_ms", "ms"},
    {"fl.parse_mb_per_s", "MB/s"},
    {"lp.bound_ms", "ms"},
    {"harness.run_algorithm_ms", "ms"},
    {"tools.cli_overhead_ms", "ms"},
    {"core.mw_greedy_ms", "ms"},
    {"core.pipeline_ms", "ms"},
    {"core.clique_fl_ms", "ms"},
    {"core.solver_self_ms", "ms"},
    {"netsim.build_ms", "ms"},
    {"netsim.rounds", "count"},
    {"netsim.node_steps", "count"},
    {"netsim.idle_rounds", "count"},
    {"netsim.msgs_per_node_step", "ratio"},
    {"netsim.step_ms", "ms"},
    {"netsim.commit_ms", "ms"},
    {"netsim.scatter_ms", "ms"},
    {"netsim.messages", "count"},
    {"netsim.kbits", "kbit"},
    {"netsim.arena_peak", "count"},
    {"service.apply_ms", "ms"},
    {"service.resolve_ms", "ms"},
    {"service.components", "count"},
    {"service.solved_components", "count"},
    {"service.dirty_share", "ratio"},
    {"service.events", "count"},
    {"workload.gen_ms", "ms"},
    {"host.ref_kernel_ms", "ms"},
}};

std::string json_string(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      os << '\\' << ch;
    } else if (c < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec << std::setfill(' ');
    } else {
      os << ch;
    }
  }
  os << '"';
  return os.str();
}

std::string json_number(double v) {
  DFLP_CHECK_MSG(std::isfinite(v), "metric value " << v << " is not finite");
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string json_numbers(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i > 0 ? ", " : "") + json_number(v[i]);
  return s + "]";
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i > 0 ? ", " : "") + json_string(v[i]);
  return s + "]";
}

std::string json_windows(const std::vector<WindowStats>& windows) {
  std::string s = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowStats& w = windows[i];
    s += std::string(i > 0 ? ", " : "") + "{\"ops\": " +
         std::to_string(w.ops) + ", \"p50_ms\": " + json_number(w.p50_ms) +
         ", \"quiet\": " + (w.quiet ? "true" : "false") + "}";
  }
  return s + "]";
}

std::string metrics_object(
    const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    s += (i > 0 ? ", " : "") + json_string(spec.name) + ": {\"value\": " +
         json_number(value) + ", \"unit\": " + json_string(spec.unit) + "}";
  }
  return s + "}";
}

struct SelfRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::vector<SelfRow> self_table(const std::vector<Span>& spans,
                                const std::vector<double>& self) {
  std::map<std::string, SelfRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfRow& r = rows[spans[i].name];
    r.name = spans[i].name;
    ++r.count;
    r.total_ms += spans[i].end_ms - spans[i].start_ms;
    r.self_ms += self[i];
  }
  std::vector<SelfRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const SelfRow& a, const SelfRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

int run(const Args& args) {
  if (!kOptimizedBuild) {
    std::cerr << "perfbench: refusing to time a build without optimisation "
                 "or without NDEBUG (build type "
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 1;
  }
  const auto origin = Clock::now();
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.small ? "-small" : "") + "-trace" +
                           (args.trace ? "1" : "0");
  std::unique_ptr<Workload> w = make_workload(args);
  const std::vector<double> kernel_start = ref_kernel_runs();

  std::vector<std::string> problems;
  const auto check_start = Clock::now();
  w->check_once(problems);
  const double check_s = ms_between(check_start, Clock::now()) / 1e3;
  std::vector<double> setup_s;
  std::vector<Fingerprint> first;
  for (int r = 0; r < kSetups; ++r) {
    const auto t0 = Clock::now();
    const std::vector<Fingerprint> fps = w->setup(problems);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (r == 0) {
      first = fps;
    } else if (fps != first) {
      problems.push_back("set-up " + std::to_string(r) +
                         " did not reproduce the first set-up's "
                         "fingerprints");
    }
  }

  SpanLog log(origin);
  const Phase phase =
      args.trace ? traced_phase(*w, args, log) : timed_phase(*w, args);
  const std::vector<double> kernel_end = ref_kernel_runs();

  const QuietOps quiet = quiet_ops(phase);
  const int tail_p = tail_percentile(quiet.latencies.size());
  const Quality q = w->quality();
  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!args.trace) {
    const std::array<double, 8> values{
        median(setup_s),
        ops_per_s(quiet.latencies),
        median(quiet.latencies),
        percentile(quiet.latencies, tail_p),
        w->peak_rss_mb(),
        q.cost_ratio,
        q.sim_rounds,
        q.sim_messages};
    for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
      metrics.emplace_back(kEndToEnd[i], values[i]);
  } else {
    std::vector<double> kernel = kernel_start;
    kernel.insert(kernel.end(), kernel_end.begin(), kernel_end.end());
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = phase.layer_samples.find(spec.name);
      const double value =
          std::string(spec.name) == "host.ref_kernel_ms" ? median(kernel)
          : it != phase.layer_samples.end()             ? median(it->second)
                                                        : 0.0;
      metrics.emplace_back(spec, value);
    }
  }

  const double untraced_p50 = median(phase.latencies);
  const double traced_p50 = median(phase.traced_latencies);
  const bool correct =
      problems.empty() && phase.failed == 0 && phase.attempted > 0;

  std::ostringstream summary;
  summary << "perfbench " << args.workload << " seed " << args.seed
          << (args.trace ? " traced" : " timed") << ": " << phase.attempted
          << " ops attempted, " << phase.failed << " failed; setup_s "
          << json_numbers(setup_s) << "; ref kernel ms start "
          << median(kernel_start) << ", end " << median(kernel_end) << "\n";
  if (!args.trace) {
    summary << "quiet windows: " << quiet.latencies.size() << " of "
            << phase.latencies.size() << " ops; tail p" << tail_p
            << "; windows (ops, p50 ms, quiet):";
    for (const WindowStats& win : quiet.windows)
      summary << " (" << win.ops << ", " << format_double(win.p50_ms, 1)
              << (win.quiet ? ", q)" : ")");
    summary << "\n";
  }
  for (const std::string& p : problems) summary << "problem: " << p << "\n";
  for (const std::string& f : phase.failures)
    summary << "failed op: " << f << "\n";

  std::ostringstream record;
  record << "{\n  \"workload\": " << json_string(args.workload)
         << ",\n  \"seed\": " << args.seed
         << ",\n  \"trace\": " << (args.trace ? 1 : 0)
         << ",\n  \"small\": " << (args.small ? "true" : "false")
         << ",\n  \"run_seconds\": " << json_number(args.seconds)
         << ",\n  \"git_sha\": " << json_string(args.git_sha)
         << ",\n  \"compiler\": " << json_string(__VERSION__)
         << ",\n  \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
         << ",\n  \"optimized\": true, \"ndebug\": true"
         << ",\n  \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ",\n  \"threads\": 1"
         << ",\n  \"setup_s_samples\": " << json_numbers(setup_s)
         << ",\n  \"check_once_s\": " << json_number(check_s)
         << ",\n  \"attempted\": " << phase.attempted
         << ",\n  \"failed\": " << phase.failed
         << ",\n  \"untraced_ops\": " << phase.latencies.size()
         << ",\n  \"traced_ops\": " << phase.traced_latencies.size()
         << ",\n  \"tail_percentile\": " << tail_p
         << ",\n  \"tail_samples\": " << quiet.latencies.size()
         << ",\n  \"windows\": " << json_windows(quiet.windows)
         << ",\n  \"latencies_ms\": " << json_numbers(phase.latencies)
         << ",\n  \"ref_kernel_ms\": {\"start\": " << json_numbers(kernel_start)
         << ", \"end\": " << json_numbers(kernel_end) << "}"
         << ",\n  \"problems\": " << json_strings(problems)
         << ",\n  \"failures\": " << json_strings(phase.failures)
         << ",\n  \"metrics\": " << metrics_object(metrics);

  if (args.trace) {
    const std::vector<double> self = self_times(log.spans());
    const std::string span_path = stem + ".spans.jsonl";
    {
      std::ofstream out(span_path);
      const auto& spans = log.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
            << ", \"op\": " << s.op << ", \"parent\": " << s.parent
            << ", \"start_ms\": " << json_number(s.start_ms)
            << ", \"end_ms\": " << json_number(s.end_ms)
            << ", \"self_ms\": " << json_number(self[i])
            << ", \"packed\": " << (s.packed ? "true" : "false") << "}\n";
      }
      out.close();
      DFLP_CHECK_MSG(!out.fail(), "cannot write " << span_path);
    }
    const auto traced_ops =
        static_cast<double>(std::max<std::size_t>(1, phase.traced_latencies.size()));
    summary << "spans: " << span_path << "\n"
            << "self time per traced op, by span name:\n"
            << "| span | count | total ms/op | self ms/op |\n"
            << "|---|---|---|---|\n";
    record << ",\n  \"spans\": " << json_string(span_path)
           << ",\n  \"self_times\": [";
    const std::vector<SelfRow> rows = self_table(log.spans(), self);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SelfRow& r = rows[i];
      summary << "| " << r.name << " | " << r.count << " | "
              << format_double(r.total_ms / traced_ops, 3) << " | "
              << format_double(r.self_ms / traced_ops, 3) << " |\n";
      record << (i > 0 ? ", " : "") << "\n    {\"name\": "
             << json_string(r.name) << ", \"count\": " << r.count
             << ", \"total_ms\": " << json_number(r.total_ms)
             << ", \"self_ms\": " << json_number(r.self_ms) << "}";
    }
    record << "]";
    if (w->traced_op_is_same_op()) {
      summary << "tracing overhead: traced op p50 " << traced_p50
              << " ms - untraced op p50 " << untraced_p50 << " ms = "
              << traced_p50 - untraced_p50 << " ms ("
              << format_double(100.0 * (traced_p50 / untraced_p50 - 1.0), 1)
              << "%)\n";
      record << ",\n  \"tracing_overhead_ms\": "
             << json_number(traced_p50 - untraced_p50);
    } else {
      summary << "tracing overhead: not measured here; the traced op is an "
                 "in-process replay of the CLI op (the gap is "
                 "tools.cli_overhead_ms)\n";
    }
    record << ",\n  \"untraced_op_ms_p50\": " << json_number(untraced_p50)
           << ",\n  \"traced_op_ms_p50\": " << json_number(traced_p50);
  }
  record << "\n}\n";
  const std::string record_path = stem + ".record.json";
  {
    std::ofstream out(record_path);
    out << record.str();
    out.close();
    DFLP_CHECK_MSG(!out.fail(), "cannot write " << record_path);
  }
  summary << "record: " << record_path << "\n";

  std::cout << summary.str() << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << phase.attempted
            << ", \"failed\": " << phase.failed
            << ", \"metrics\": " << metrics_object(metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
