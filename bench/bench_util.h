// Shared glue for the experiments of `dflp_bench` (bench/).
//
// Each `run_<name>` entry regenerates one experiment from DESIGN.md §4: it
// prints the experiment's table(s) as Markdown — the "rows/series the paper
// reports", here the paper's *theorem shapes*. Every number except the
// wall-time columns is produced from seeded runs, so reruns are
// bit-identical. E10–E15 also write one JSON record (Record) and exit 1
// when a gate fails; parse_options is the one command-line parser.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "netsim/network.h"
#include "workload/generators.h"

namespace dflp::benchx {

/// Flags an experiment takes besides its name; E1–E8 take none.
enum Takes : unsigned {
  kTakesSmokeOut = 1u << 0,   ///< --smoke, --out FILE (E10–E15)
  kTakesPhases = 1u << 1,     ///< --phases (transport)
  kTakesReference = 1u << 2,  ///< --reference ROUNDS_PER_S (trace)
};

/// One experiment run's command line.
struct Options {
  bool smoke = false;      ///< shrunken workload for CI
  bool phases = false;     ///< transport: per-engine-phase attribution
  std::string out;         ///< record path; BENCH_<name>.json by default
  double reference = 0.0;  ///< trace: storm rounds/s of an E10 run
};

/// A command-line error; the message names the offending argument.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A record file that could not be written; the message names its path.
struct WriteError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses the arguments after experiment `name`, which takes the flags in
/// `takes`. Throws UsageError on a flag `name` does not take, a flag
/// without its value, or a --reference that is not a whole non-negative
/// number (`3x`, `abc` and `nan` are rejected, not read as a prefix or 0).
inline Options parse_options(std::string_view name, unsigned takes, int argc,
                             char** argv) {
  Options opts;
  opts.out = "BENCH_" + std::string(name) + ".json";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](unsigned flag) {
      if ((takes & flag) == 0)
        throw UsageError(arg + " does not apply to " + std::string(name));
    };
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--smoke") {
      take(kTakesSmokeOut);
      opts.smoke = true;
    } else if (arg == "--out") {
      take(kTakesSmokeOut);
      opts.out = value();
    } else if (arg == "--phases") {
      take(kTakesPhases);
      opts.phases = true;
    } else if (arg == "--reference") {
      take(kTakesReference);
      const std::string text = value();
      const char* const end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, opts.reference);
      if (ec != std::errc{} || ptr != end || !std::isfinite(opts.reference) ||
          opts.reference < 0.0) {
        throw UsageError("--reference must be a non-negative number; got '" +
                         text + "'");
      }
    } else {
      throw UsageError("unknown argument '" + arg + "'");
    }
  }
  return opts;
}

inline core::MwParams make_params(int k, std::uint64_t seed) {
  core::MwParams p;
  p.k = k;
  p.seed = seed;
  return p;
}

/// Aggregate of repeated runs of one configuration.
struct Agg {
  double mean_ratio = 0.0;
  double max_ratio = 0.0;
  double mean_rounds = 0.0;
  double mean_messages = 0.0;
  int max_message_bits = 0;
  double mean_cost = 0.0;
  double mean_wall_ms = 0.0;
  int repetitions = 0;
};

/// Runs `algo` over `seeds` fresh instances drawn by `make_instance` and
/// aggregates ratios against each instance's own lower bound.
template <typename MakeInstance>
Agg aggregate_runs(harness::Algo algo, int k, MakeInstance&& make_instance,
                   const std::vector<std::uint64_t>& seeds) {
  Agg agg;
  RunningStat ratio;
  RunningStat rounds;
  RunningStat messages;
  RunningStat cost;
  RunningStat wall;
  for (std::uint64_t seed : seeds) {
    const fl::Instance inst = make_instance(seed);
    const harness::LowerBound lb = harness::compute_lower_bound(inst);
    const harness::RunResult r =
        harness::run_algorithm(algo, inst, make_params(k, seed), lb);
    ratio.add(r.ratio);
    rounds.add(static_cast<double>(r.rounds));
    messages.add(static_cast<double>(r.messages));
    cost.add(r.cost);
    wall.add(r.wall_ms);
    agg.max_message_bits = std::max(agg.max_message_bits, r.max_message_bits);
  }
  agg.mean_ratio = ratio.mean();
  agg.max_ratio = ratio.max();
  agg.mean_rounds = rounds.mean();
  agg.mean_messages = messages.mean();
  agg.mean_cost = cost.mean();
  agg.mean_wall_ms = wall.mean();
  agg.repetitions = static_cast<int>(seeds.size());
  return agg;
}

inline std::vector<std::uint64_t> default_seeds(int count = 5) {
  std::vector<std::uint64_t> seeds;
  for (int s = 1; s <= count; ++s) seeds.push_back(static_cast<std::uint64_t>(s));
  return seeds;
}

inline void print_header(const std::string& experiment_id,
                         const std::string& claim) {
  std::cout << "\n# " << experiment_id << "\n" << claim << "\n";
}

/// Escapes `"`, `\` and newlines for a JSON string value; the records'
/// strings (scenario names, diagnostics) hold no other control characters.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

/// One JSON object of a BENCH_*.json record: fields in insertion order,
/// numbers in default `ostream` formatting, strings escaped, bools as
/// true/false. A nested object sits inline on its field's line, and an
/// array of objects holds one object per line.
class Record {
 public:
  template <typename T>
  Record& add(std::string_view key, const T& value) {
    std::ostringstream os;
    if constexpr (std::is_same_v<T, bool>) {
      os << (value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      os << '"' << json_escape(value) << '"';
    } else {
      os << value;
    }
    fields_.emplace_back(key, os.str());
    return *this;
  }
  Record& add(std::string_view key, const Record& object) {
    fields_.emplace_back(key, object.inline_text());
    return *this;
  }
  Record& add(std::string_view key, const std::vector<Record>& rows) {
    std::string text = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
      text += "    " + rows[i].inline_text() +
              (i + 1 < rows.size() ? ",\n" : "\n");
    fields_.emplace_back(key, text + "  ]");
    return *this;
  }

  /// `{"key": value, ...}` on one line.
  [[nodiscard]] std::string inline_text() const {
    std::string text = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      text += (i > 0 ? ", \"" : "\"") + fields_[i].first + "\": " +
              fields_[i].second;
    return text + "}";
  }

  /// Writes the record as a top-level object, one field per line, and
  /// names the file on stdout. Throws WriteError when the file cannot be
  /// opened or written.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out << "  \"" << fields_[i].first << "\": " << fields_[i].second
          << (i + 1 < fields_.size() ? ",\n" : "\n");
    out << "}\n";
    out.close();
    if (!out) throw WriteError("cannot write '" + path + "'");
    std::cout << "\nwrote " << path << "\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The fields every E10–E15 record opens with.
inline Record bench_record(std::string_view bench, const Options& opts) {
  Record record;
  record.add("bench", bench).add("mode", opts.smoke ? "smoke" : "full");
  return record;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The E10 transport workloads (bench_transport.cc): "star", "bipartite"
/// or "storm" on `n` nodes, each node running its topology's never-halting
/// sender; `tracer` may be null. E12 times the storm one.
net::Network make_network(const std::string& topology, std::size_t n,
                          net::Tracer* tracer);

/// Prints the table and a one-line verdict the EXPERIMENTS.md records.
inline void print_table(const std::string& caption, const Table& table) {
  std::cout << "\n### " << caption << "\n\n" << table.to_markdown()
            << std::flush;
}

}  // namespace dflp::benchx
