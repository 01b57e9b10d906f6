#include "core/pipeline.h"

#include "core/bipartite.h"

namespace dflp::core {

PipelineOutcome run_pipeline(const fl::Instance& inst,
                             const MwParams& params) {
  // One network and edge table for both stages: the rounding stage reruns
  // it from round 0 under its own options (seed stream, bit budget, fault
  // plan, trace section) instead of building the CSR again.
  const MwSchedule schedule = derive_schedule(inst, params);
  EdgeTable table;
  net::Network net =
      make_bipartite_network(inst, frac_lp_options(schedule, params), table);
  FracOutcome frac = run_frac_lp(net, table, inst, schedule, params);
  net.restart(rand_round_options(frac.schedule, params));
  RoundOutcome rounded = run_rand_round(net, table, inst, frac.fractional,
                                        frac.schedule, params);

  PipelineOutcome outcome(inst);
  outcome.solution = std::move(rounded.solution);
  outcome.fractional_value = frac.fractional.value(inst);
  outcome.frac_metrics = frac.metrics;
  outcome.round_metrics = rounded.metrics;
  outcome.schedule = frac.schedule;
  outcome.frac_mopup_clients = frac.mopup_clients;
  outcome.round_fallback_clients = rounded.fallback_clients;
  outcome.transport = frac.transport;
  outcome.transport.merge(rounded.transport);
  return outcome;
}

}  // namespace dflp::core
