// E14 — redundancy vs recovery (`dflp_bench ftfp`).
//
// Sweeps coverage r in {1,2,3} x transport {fault-free bare, lossy bare,
// lossy reliable} on a uniform bipartite instance, then runs survivability
// campaigns against every placement: the exhaustive single-crash
// enumeration plus seeded kill fractions shared across the r sweep (same
// FaultPlan seed => the r=1 and r=2 placements face comparable hazards).
//
// The headline table prices the two ways of buying robustness against the
// same fault process:
//   * placement-level redundancy — pay extra opening/connection cost up
//     front (r >= 2) and survive facility crashes with zero recourse;
//   * transport-level recovery — keep the cheap r=1 placement and pay
//     retransmissions + round dilation so message loss cannot corrupt it.
//
// Gates (exit 1 on violation):
//   * the r=1 run is cost- and placement-identical to the plain UFL
//     mw_greedy run (the reduction identity);
//   * every r=2 placement stays residually feasible under every single
//     opened-facility crash, with zero emergency re-openings;
//   * every lossy reliable cell recovers the fault-free placement
//     bit-for-bit;
//   * every lossy bare cell fails loudly (no silent corruption).
//
// Results go to stdout as markdown tables and to `BENCH_ftfp.json`
// (override with `--out`). `--smoke` shrinks the instance for CI.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/ftfp_greedy.h"
#include "core/mw_greedy.h"
#include "harness/survive.h"
#include "workload/generators.h"

namespace dflp::benchx {
namespace {

constexpr double kDrop = 0.15;
constexpr std::uint64_t kFaultSeed = 29;   // shared by every lossy cell
constexpr std::uint64_t kKillSeed = 7;     // shared by every sampled kill

enum class Transport { kFaultFree, kLossyBare, kLossyReliable };

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kFaultFree: return "fault-free";
    case Transport::kLossyBare: return "lossy-bare";
    case Transport::kLossyReliable: return "lossy-reliable";
  }
  return "?";
}

core::MwParams cell_params(Transport t) {
  core::MwParams p;
  p.k = 4;
  p.seed = 11;
  if (t != Transport::kFaultFree) {
    p.faults.drop_probability = kDrop;
    p.faults.fault_seed = kFaultSeed;
  }
  p.reliable = t == Transport::kLossyReliable;
  return p;
}

struct SolveCell {
  std::int32_t r = 1;
  Transport transport = Transport::kFaultFree;
  bool completed = false;
  bool feasible = false;
  bool matches_fault_free = false;
  double cost = 0.0;
  int open = 0;
  int phases = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmissions = 0;
  std::string diagnostic;
};

struct SurviveCell {
  std::int32_t r = 1;
  harness::SurvivalReport report;
};

}  // namespace

int run_ftfp(const Options& opts) {
  const bool smoke = opts.smoke;
  workload::UniformParams gen;
  gen.num_facilities = smoke ? 20 : 40;
  gen.num_clients = smoke ? 80 : 160;
  gen.client_degree = 5;  // keeps r = 3 feasible without clamping
  const fl::Instance base = workload::uniform_random(gen, 19);

  std::cout << "\n# E14 — redundancy vs recovery on " << base.describe()
            << (smoke ? " (smoke)" : "") << "\n\n";

  // --- solve sweep ---------------------------------------------------
  std::vector<SolveCell> solves;
  std::vector<fl::FtfpSolution> placements;  // fault-free placement per r
  std::vector<fl::FtfpInstance> instances;
  std::vector<std::string> fault_free_prints;
  int failures = 0;

  for (const std::int32_t r : {1, 2, 3}) {
    const fl::FtfpInstance inst = fl::with_uniform_requirement(base, r);
    instances.push_back(inst);
    for (const Transport t : {Transport::kFaultFree, Transport::kLossyBare,
                              Transport::kLossyReliable}) {
      SolveCell cell;
      cell.r = r;
      cell.transport = t;
      try {
        const core::FtfpOutcome out =
            core::run_ftfp_greedy(inst, cell_params(t));
        cell.completed = true;
        cell.feasible = out.solution.is_feasible(inst);
        cell.cost = out.solution.cost(inst);
        cell.open = out.solution.num_open();
        cell.phases = out.phases;
        cell.rounds = out.metrics.rounds;
        cell.messages = out.metrics.messages;
        cell.dropped = out.metrics.dropped;
        cell.retransmissions = out.transport.retransmissions;
        const std::string print = out.solution.fingerprint(inst);
        if (t == Transport::kFaultFree) {
          placements.push_back(out.solution);
          fault_free_prints.push_back(print);
          cell.matches_fault_free = true;
        } else {
          cell.matches_fault_free = print == fault_free_prints.back();
        }
      } catch (const CheckError& e) {
        cell.completed = false;
        cell.diagnostic = without_check_location(e.what());
      }
      solves.push_back(cell);
    }
  }

  std::cout << "| r | transport | ok | feasible | match | cost | open | "
               "phases | rounds | messages | dropped | retx |\n";
  std::cout << "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const SolveCell& c : solves) {
    std::cout << "| " << c.r << " | " << transport_name(c.transport) << " | "
              << (c.completed ? "yes" : "NO") << " | "
              << (c.feasible ? "yes" : "no") << " | "
              << (c.matches_fault_free ? "yes" : "no") << " | " << c.cost
              << " | " << c.open << " | " << c.phases << " | " << c.rounds
              << " | " << c.messages << " | " << c.dropped << " | "
              << c.retransmissions << " |\n";
    if (!c.completed) {
      const std::string& d = c.diagnostic;
      std::cout << "  failure: " << d.substr(0, d.find('\n')) << "\n";
    }
    std::cout.flush();
  }

  // Gate: the r=1 run is the plain UFL run.
  {
    const fl::IntegralSolution ufl =
        core::run_mw_greedy(base, cell_params(Transport::kFaultFree))
            .solution;
    const SolveCell& r1 = solves.front();
    if (r1.cost != ufl.cost(base) || r1.open != ufl.num_open()) {
      std::cerr << "FAIL: r=1 FTFP run (cost " << r1.cost
                << ") differs from the plain UFL mw_greedy run (cost "
                << ufl.cost(base) << ")\n";
      ++failures;
    }
  }
  for (const SolveCell& c : solves) {
    if (c.transport == Transport::kLossyBare) {
      if (c.completed) {
        std::cerr << "FAIL: lossy bare cell r=" << c.r
                  << " completed silently under " << kDrop << " loss\n";
        ++failures;
      }
    } else if (!c.completed || !c.feasible || !c.matches_fault_free) {
      std::cerr << "FAIL: cell r=" << c.r << " "
                << transport_name(c.transport)
                << " did not recover the fault-free placement\n";
      ++failures;
    }
  }

  // --- survivability campaigns --------------------------------------
  std::vector<SurviveCell> survives;
  std::vector<harness::SurvivalSummary> single_summaries;
  for (std::size_t idx = 0; idx < placements.size(); ++idx) {
    const fl::FtfpInstance& inst = instances[idx];
    const fl::FtfpSolution& sol = placements[idx];
    std::vector<harness::KillSet> kills =
        harness::single_kill_sets(sol, inst);
    const std::size_t singles = kills.size();
    for (const double frac : {0.1, 0.3})
      kills.push_back(harness::sample_kill_set(sol, inst, frac, kKillSeed));
    const std::vector<harness::SurvivalReport> reports =
        harness::run_survival_campaign(inst, sol, kills);
    single_summaries.push_back(harness::summarize(
        {reports.begin(), reports.begin() + static_cast<long>(singles)}));
    const std::int32_t r = instances[idx].max_requirement();
    for (const harness::SurvivalReport& rep : reports)
      survives.push_back({r, rep});
  }

  std::cout << "\n## survivability (single kills summarized; sampled kill "
               "sets share seed "
            << kKillSeed << ")\n\n";
  std::cout << "| r | kill set | killed | residual-feasible | repaired | "
               "orphans | rerouted | reopened | cost-ratio |\n";
  std::cout << "|---|---|---|---|---|---|---|---|---|\n";
  for (std::size_t idx = 0; idx < single_summaries.size(); ++idx) {
    const harness::SurvivalSummary& s = single_summaries[idx];
    std::cout << "| " << instances[idx].max_requirement()
              << " | all-singles (" << s.kill_sets << ") | 1 | "
              << s.residual_feasible << "/" << s.kill_sets << " | "
              << s.repaired << "/" << s.kill_sets << " | " << s.worst_orphans
              << " | " << s.total_rerouted << " | " << s.total_reopened
              << " | " << s.worst_cost_ratio << " |\n";
  }
  for (const SurviveCell& c : survives) {
    if (c.report.kill_set.rfind("kill-frac", 0) != 0) continue;
    const harness::SurvivalReport& r = c.report;
    std::cout << "| " << c.r << " | " << r.kill_set << " | " << r.killed
              << " | " << (r.residual_feasible ? "yes" : "no") << " | "
              << (r.repaired ? "yes" : "no") << " | " << r.orphaned_clients
              << " | " << r.rerouted_clients << " | "
              << r.reopened_facilities << " | " << r.cost_ratio << " |\n";
  }

  // Gate: every single crash of an r=2 (or r=3) placement stays residually
  // feasible with zero emergency re-openings.
  for (std::size_t idx = 0; idx < single_summaries.size(); ++idx) {
    if (instances[idx].max_requirement() < 2) continue;
    const harness::SurvivalSummary& s = single_summaries[idx];
    if (s.residual_feasible != s.kill_sets || s.total_reopened != 0) {
      std::cerr << "FAIL: r=" << instances[idx].max_requirement()
                << " placement lost a client to a single crash ("
                << s.residual_feasible << "/" << s.kill_sets
                << " kill sets residually feasible)\n";
      ++failures;
    }
  }

  // --- headline: redundancy vs ARQ ----------------------------------
  // Price the two robustness strategies against each other: extra solve
  // cost paid by r=2 redundancy vs retransmission + dilation paid by the
  // r=1 reliable transport, and what each survives.
  const SolveCell* r1_free = nullptr;
  const SolveCell* r2_free = nullptr;
  const SolveCell* r1_arq = nullptr;
  for (const SolveCell& c : solves) {
    if (c.r == 1 && c.transport == Transport::kFaultFree) r1_free = &c;
    if (c.r == 2 && c.transport == Transport::kFaultFree) r2_free = &c;
    if (c.r == 1 && c.transport == Transport::kLossyReliable) r1_arq = &c;
  }
  std::cout << "\n## headline — redundancy vs ARQ (shared fault seed "
            << kFaultSeed << ")\n\n";
  std::cout << "| strategy | cost premium | extra rounds | retx | survives "
               "any single facility crash | survives " << kDrop
            << " msg loss |\n";
  std::cout << "|---|---|---|---|---|---|\n";
  const harness::SurvivalSummary& s1 = single_summaries[0];
  const harness::SurvivalSummary& s2 = single_summaries[1];
  std::cout << "| r=2 redundancy | "
            << (r2_free->cost / r1_free->cost) << "x | "
            << (r2_free->rounds - r1_free->rounds) << " | 0 | "
            << (s2.residual_feasible == s2.kill_sets ? "yes" : "NO")
            << " | no (bare transport) |\n";
  std::cout << "| r=1 + reliable transport | 1x | "
            << (r1_arq->rounds - r1_free->rounds) << " | "
            << r1_arq->retransmissions << " | "
            << (s1.residual_feasible == s1.kill_sets ? "yes" : "no ("
                   + std::to_string(s1.kill_sets - s1.residual_feasible)
                   + " crashes orphan clients)")
            << " | yes |\n";

  std::vector<Record> solve_rows;
  for (const SolveCell& c : solves) {
    Record& row = solve_rows.emplace_back();
    row.add("r", c.r)
        .add("transport", transport_name(c.transport))
        .add("completed", c.completed)
        .add("feasible", c.feasible)
        .add("matches_fault_free", c.matches_fault_free)
        .add("cost", c.cost)
        .add("open", c.open)
        .add("phases", c.phases)
        .add("rounds", c.rounds)
        .add("messages", c.messages)
        .add("dropped", c.dropped)
        .add("retransmissions", c.retransmissions);
    if (!c.completed) row.add("diagnostic", c.diagnostic);
  }
  std::vector<Record> survive_rows;
  for (const SurviveCell& c : survives) {
    const harness::SurvivalReport& r = c.report;
    survive_rows.emplace_back()
        .add("r", c.r)
        .add("kill_set", r.kill_set)
        .add("killed", r.killed)
        .add("surviving_open", r.surviving_open)
        .add("residual_feasible", r.residual_feasible)
        .add("repaired", r.repaired)
        .add("orphaned", r.orphaned_clients)
        .add("rerouted", r.rerouted_clients)
        .add("reopened", r.reopened_facilities)
        .add("cost_ratio", r.cost_ratio)
        .add("reassignment_cost", r.reassignment_cost);
  }
  bench_record("ftfp", opts)
      .add("instance", base.describe())
      .add("drop", kDrop)
      .add("fault_seed", kFaultSeed)
      .add("kill_seed", kKillSeed)
      .add("solve", solve_rows)
      .add("survive", survive_rows)
      .write(opts.out);

  if (failures > 0) {
    std::cerr << "FAIL: " << failures << " gate(s) violated\n";
    return 1;
  }
  return 0;
}

}  // namespace dflp::benchx
