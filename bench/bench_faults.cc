// E11 — fault-injection campaign (`dflp_bench faults`).
//
// Sweeps the fault grid drop rate × boot-crash fraction × burst length on
// a uniform bipartite instance, once without and once with the reliable
// transport, and reports for every cell whether the run completed, whether
// the solution matches the fault-free baseline bit-for-bit, the cost
// ratio, and the recovery bill (round dilation, retransmissions,
// duplicate discards). Without the transport the protocol is expected to
// fail loudly once loss is non-trivial — the diagnostic names the first
// lost message; with it, every cell must return the fault-free solution.
//
// Outside the grid, the same instance is solved once bare and once under
// the reliable channel, both without loss: the channel is an
// alpha-synchronizer, so the solution must come back bit-identical, and
// the row prices it in rounds, control frames and bits (E9's claim, see
// EXPERIMENTS.md).
//
// Results go to stdout as markdown tables and to a machine-readable
// `BENCH_faults.json` (override with `--out`). `--smoke` shrinks the grid
// and the instance for CI.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/faults.h"
#include "workload/generators.h"

namespace dflp::benchx {
namespace {

struct Cell {
  double drop = 0.0;
  double crash_frac = 0.0;
  int burst_len = 0;
  bool reliable = false;
};

std::string cell_name(const Cell& c) {
  std::ostringstream os;
  os << "drop" << c.drop << "_crash" << c.crash_frac << "_burst"
     << c.burst_len << (c.reliable ? "_reliable" : "_bare");
  return os.str();
}

core::MwParams cell_params(const Cell& c) {
  core::MwParams p;
  p.k = 4;
  p.seed = 11;
  p.faults.drop_probability = c.drop;
  if (c.burst_len > 0) {
    p.faults.burst.p_good_to_bad = 0.05;
    p.faults.burst.p_bad_to_good = 1.0 / c.burst_len;
  }
  p.boot_crash_fraction = c.crash_frac;
  p.faults.fault_seed = 29;
  p.reliable = c.reliable;
  return p;
}

}  // namespace

int run_faults(const Options& opts) {
  const bool smoke = opts.smoke;
  // The bipartite generator at a scale where a 10% boot-crash plan is
  // non-empty and the unprotected protocol reliably trips over loss.
  workload::UniformParams gen;
  gen.num_facilities = smoke ? 20 : 40;
  gen.num_clients = smoke ? 80 : 160;
  gen.client_degree = smoke ? 4 : 5;
  const fl::Instance inst = workload::uniform_random(gen, 19);

  const std::vector<double> drops =
      smoke ? std::vector<double>{0.1, 0.2}
            : std::vector<double>{0.0, 0.05, 0.1, 0.2};
  const std::vector<double> crash_fracs =
      smoke ? std::vector<double>{0.0, 0.1} : std::vector<double>{0.0, 0.1};
  const std::vector<int> burst_lens =
      smoke ? std::vector<int>{0} : std::vector<int>{0, 4};

  std::vector<Cell> cells;
  for (double drop : drops)
    for (double crash : crash_fracs)
      for (int burst : burst_lens)
        for (bool reliable : {false, true})
          cells.push_back({drop, crash, burst, reliable});

  std::vector<harness::FaultScenario> scenarios;
  scenarios.reserve(cells.size());
  for (const Cell& c : cells)
    scenarios.push_back({cell_name(c), cell_params(c)});

  std::cout << "\n# E11 — fault-injection campaign on " << inst.describe()
            << (smoke ? " (smoke)" : "") << "\n\n";
  const std::vector<harness::FaultRunReport> reports =
      harness::run_fault_campaign(inst, scenarios);

  std::cout << "| scenario | ok | match | cost-ratio | rounds | dilation | "
               "dropped | crashed | retx | dup-disc |\n";
  std::cout << "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const harness::FaultRunReport& r : reports) {
    std::cout << "| " << r.scenario << " | " << (r.completed ? "yes" : "NO")
              << " | " << (r.matches_fault_free ? "yes" : "no") << " | "
              << r.cost_ratio << " | " << r.rounds << " | "
              << r.round_dilation << " | " << r.dropped << " | " << r.crashed
              << " | " << r.retransmissions << " | "
              << r.duplicates_discarded << " |\n";
    if (!r.completed)
      std::cout << "  failure: " << r.diagnostic << "\n";
    std::cout.flush();
  }

  // Loss-free synchronizer overhead: every figure comes from the two runs'
  // NetMetrics and the channel's ReliableStats.
  const core::MwGreedyOutcome bare = core::run_mw_greedy(inst, cell_params({}));
  const core::MwGreedyOutcome framed =
      core::run_mw_greedy(inst, cell_params({.reliable = true}));
  const bool sync_match = harness::solution_fingerprint(inst, bare.solution) ==
                          harness::solution_fingerprint(inst, framed.solution);
  const auto payload = static_cast<double>(bare.metrics.messages);
  const auto frames = static_cast<double>(framed.metrics.messages);
  const double control_per_payload = (frames - payload) / payload;
  const double bit_overhead = static_cast<double>(framed.metrics.total_bits) /
                              static_cast<double>(bare.metrics.total_bits);
  std::cout << "\n### loss-free synchronizer overhead (bare vs reliable)\n\n"
            << "| bare rounds | logical / physical rounds | payload msgs | "
               "channel frames | control/payload | bit overhead | match |\n"
            << "|---|---|---|---|---|---|---|\n"
            << "| " << bare.metrics.rounds << " | "
            << framed.transport.logical_rounds << " / "
            << framed.transport.physical_rounds << " | "
            << bare.metrics.messages << " | " << framed.metrics.messages
            << " | " << format_double(control_per_payload, 2) << " | "
            << format_double(bit_overhead, 1) << "x | "
            << (sync_match ? "yes" : "NO") << " |\n";

  std::vector<Record> rows;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Cell& c = cells[i];
    const harness::FaultRunReport& r = reports[i];
    Record& row = rows.emplace_back();
    row.add("scenario", r.scenario)
        .add("drop", c.drop)
        .add("crash_frac", c.crash_frac)
        .add("burst_len", c.burst_len)
        .add("reliable", c.reliable)
        .add("completed", r.completed)
        .add("feasible", r.feasible)
        .add("matches_fault_free", r.matches_fault_free)
        .add("cost_ratio", r.cost_ratio)
        .add("rounds", r.rounds)
        .add("round_dilation", r.round_dilation)
        .add("dropped", r.dropped)
        .add("duplicated", r.duplicated)
        .add("crashed", r.crashed)
        .add("retransmissions", r.retransmissions)
        .add("duplicates_discarded", r.duplicates_discarded);
    if (!r.completed) row.add("diagnostic", r.diagnostic);
  }
  Record sync;
  sync.add("bare_rounds", bare.metrics.rounds)
      .add("logical_rounds", framed.transport.logical_rounds)
      .add("physical_rounds", framed.transport.physical_rounds)
      .add("payload_messages", bare.metrics.messages)
      .add("channel_frames", framed.metrics.messages)
      .add("control_per_payload", control_per_payload)
      .add("bit_overhead", bit_overhead)
      .add("solutions_match", sync_match);
  bench_record("faults", opts)
      .add("results", rows)
      .add("synchronizer", sync)
      .write(opts.out);

  // Gate: the loss-free reliable run returns the bare run's solution.
  if (!sync_match) {
    std::cerr << "FAIL: the loss-free reliable run did not return the bare "
                 "run's solution\n";
    return 1;
  }
  // Gate: every reliable cell must have recovered the fault-free solution.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (cells[i].reliable &&
        (!reports[i].completed || !reports[i].matches_fault_free)) {
      std::cerr << "FAIL: reliable cell " << reports[i].scenario
                << " did not recover the fault-free solution\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace dflp::benchx
