// Shared glue for the experiment binaries (bench/).
//
// Each binary regenerates one experiment from DESIGN.md §4: it prints the
// experiment's table(s) as Markdown — the "rows/series the paper reports",
// here the paper's *theorem shapes*. Every number except the wall-time
// columns is produced from seeded runs, so reruns are bit-identical.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "core/mw_greedy.h"
#include "core/pipeline.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "workload/generators.h"

namespace dflp::benchx {

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
inline std::string json_escape(const std::string& s) {
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

/// Prints the table and a one-line verdict the EXPERIMENTS.md records.
inline void print_table(const std::string& caption, const Table& table) {
  std::cout << "\n### " << caption << "\n\n" << table.to_markdown()
            << std::flush;
}

}  // namespace dflp::benchx
