// E8 ("Table 5") — ablation of the reconstruction's pinned choices.
//
// DESIGN.md §3 pins several free choices the paper's text (unavailable
// here) would have fixed: the number of contention sub-phases, the
// acceptance rule, and the deterministic mop-up. This bench quantifies each
// choice's contribution so readers can judge the reconstruction.
#include "bench_util.h"

#include "core/frac_lp.h"

namespace dflp::benchx {
namespace {

fl::Instance ablation_instance(workload::Family family, std::uint64_t seed) {
  return workload::make_family_instance(family, 100, seed);
}

struct Variant {
  const char* name;
  core::MwParams (*tweak)(core::MwParams);
};

core::MwParams keep(core::MwParams p) { return p; }
core::MwParams one_subphase(core::MwParams p) {
  p.subphases_override = 1;
  return p;
}
core::MwParams any_accept(core::MwParams p) {
  p.accept_rule = core::AcceptRule::kAnyAccept;
  return p;
}
core::MwParams no_mopup(core::MwParams p) {
  p.mopup = false;
  return p;
}

void run_family(workload::Family family) {
  const std::vector<Variant> variants = {
      {"default (L sub-phases, |star|/beta accepts, mop-up)", keep},
      {"single sub-phase per scale", one_subphase},
      {"any-accept opening rule", any_accept},
  };

  Table table({"variant", "cost(mean)", "rounds", "mopup-clients"});
  for (const Variant& v : variants) {
    RunningStat cost;
    RunningStat rounds;
    RunningStat mopup;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst = ablation_instance(family, seed);
      const core::MwGreedyOutcome out =
          core::run_mw_greedy(inst, v.tweak(make_params(16, seed)));
      cost.add(out.solution.cost(inst));
      rounds.add(static_cast<double>(out.metrics.rounds));
      mopup.add(static_cast<double>(out.mopup_clients));
    }
    table.row()
        .cell(v.name)
        .cell(cost.mean(), 2)
        .cell(rounds.mean(), 1)
        .cell(mopup.mean(), 2);
  }

  // Mop-up ablation is special: without it feasibility can fail, so report
  // the straggler count instead of a (meaningless) cost.
  {
    RunningStat stragglers;
    RunningStat rounds;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst = ablation_instance(family, seed);
      const core::MwGreedyOutcome out =
          core::run_mw_greedy(inst, no_mopup(make_params(16, seed)));
      int unassigned = 0;
      for (fl::ClientId j = 0; j < inst.num_clients(); ++j)
        if (out.solution.assignment(j) == fl::kNoFacility) ++unassigned;
      stragglers.add(static_cast<double>(unassigned));
      rounds.add(static_cast<double>(out.metrics.rounds));
    }
    table.row()
        .cell("no mop-up (stragglers left unserved)")
        .cell("n/a (" + format_double(stragglers.mean(), 2) +
              " clients uncovered)")
        .cell(rounds.mean(), 1)
        .cell("-");
  }
  print_table("family = " + workload::family_name(family) +
                  " (k = 16, 5 seeds)",
              table);
}

void run_boost_table() {
  Table table({"rounding boost", "pipeline cost(mean)", "fallback-clients"});
  for (double boost : {0.5, 1.0, 2.0, 4.0}) {
    RunningStat cost;
    RunningStat fallback;
    for (std::uint64_t seed : default_seeds()) {
      const fl::Instance inst =
          ablation_instance(workload::Family::kUniform, seed);
      core::MwParams params = make_params(9, seed);
      params.rounding_boost = boost;
      const core::PipelineOutcome out = core::run_pipeline(inst, params);
      cost.add(out.solution.cost(inst));
      fallback.add(static_cast<double>(out.round_fallback_clients));
    }
    table.row()
        .cell(boost, 2)
        .cell(cost.mean(), 2)
        .cell(fallback.mean(), 2);
  }
  print_table("rounding-boost sweep (uniform family, k = 9)", table);
}

}  // namespace

int run_ablation(const Options&) {
  print_header(
      "E8 / Table 5 — ablation of reconstruction choices",
      "Each row disables one pinned choice from DESIGN.md §3. Expected: "
      "fewer sub-phases leave more mop-up stragglers; any-accept is "
      "cheaper in coordination but costlier in solution; no mop-up breaks "
      "the feasibility guarantee; higher rounding boost trades opening "
      "cost against fallbacks.");
  run_family(workload::Family::kUniform);
  run_family(workload::Family::kPowerLaw);
  run_boost_table();
  return 0;
}

}  // namespace dflp::benchx
