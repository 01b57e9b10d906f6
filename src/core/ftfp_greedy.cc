#include "core/ftfp_greedy.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace dflp::core {

namespace {

/// Decorrelates per-phase engine seeds from each other and from the base
/// stream (phase 0 deliberately keeps the base seed — see header).
constexpr std::uint64_t kFtfpPhaseSalt = 0xF7F9C0BE12E5D3ULL;

}  // namespace

ResidualInstance build_residual(const fl::FtfpInstance& inst,
                                const fl::FtfpSolution& so_far) {
  const fl::Instance& base = inst.base;
  ResidualInstance out;

  std::size_t residual_edges = 0;
  for (fl::ClientId j = 0; j < base.num_clients(); ++j) {
    const std::int32_t have = so_far.coverage(j);
    if (have >= inst.requirement[static_cast<std::size_t>(j)]) continue;
    out.client_map.push_back(j);
    residual_edges += base.client_edges(j).size() -
                      static_cast<std::size_t>(have);
  }
  if (out.client_map.empty()) return out;  // all demands satisfied

  fl::InstanceBuilder builder;
  builder.reserve(base.num_facilities(),
                  static_cast<std::int32_t>(out.client_map.size()),
                  residual_edges);
  // Facility ids are preserved: forced-open facilities cost 0, every other
  // facility keeps its price. Facilities with no residual edge are inert
  // (they halt in round 0) but keep the id space aligned with the base
  // instance, so crash plans and solution readout need no translation.
  for (fl::FacilityId i = 0; i < base.num_facilities(); ++i)
    builder.add_facility(so_far.is_open(i) ? 0.0 : base.opening_cost(i));
  for (std::size_t res_j = 0; res_j < out.client_map.size(); ++res_j) {
    const fl::ClientId j = out.client_map[res_j];
    builder.add_client();
    const auto taken = so_far.assignments(j);
    for (const fl::ClientEdge& e : base.client_edges(j)) {
      if (std::find(taken.begin(), taken.end(), e.facility) != taken.end())
        continue;  // exclusion: already assigned in an earlier phase
      builder.connect(e.facility, static_cast<fl::ClientId>(res_j), e.cost);
    }
  }
  out.instance = builder.build();
  return out;
}

FtfpOutcome run_ftfp_greedy(const fl::FtfpInstance& inst,
                            const MwParams& params) {
  fl::validate(inst);
  FtfpOutcome outcome;
  outcome.solution = fl::FtfpSolution(inst);

  const std::int32_t r_max = inst.max_requirement();
  for (std::int32_t phase = 0; phase < r_max; ++phase) {
    const ResidualInstance residual =
        build_residual(inst, outcome.solution);
    if (residual.client_map.empty()) break;

    MwParams phase_params = params;
    if (phase > 0) {
      phase_params.seed = derive_stream_seed(
          params.seed, static_cast<std::uint64_t>(phase), kFtfpPhaseSalt);
    }
    const MwGreedyOutcome step =
        run_mw_greedy(residual.instance, phase_params);

    for (fl::FacilityId i = 0; i < residual.instance.num_facilities(); ++i)
      if (step.solution.is_open(i)) outcome.solution.open(i);
    for (std::size_t res_j = 0; res_j < residual.client_map.size(); ++res_j) {
      const fl::FacilityId i =
          step.solution.assignment(static_cast<fl::ClientId>(res_j));
      if (i != fl::kNoFacility)
        outcome.solution.assign(residual.client_map[res_j], i);
    }

    if (phase == 0) outcome.schedule = step.schedule;
    outcome.metrics.merge(step.metrics);
    outcome.phase_metrics.push_back(step.metrics);
    outcome.mopup_clients += step.mopup_clients;
    outcome.transport.merge(step.transport);
    ++outcome.phases;
  }

  if (params.mopup) {
    std::string why;
    DFLP_CHECK_MSG(outcome.solution.is_feasible(inst, &why),
                   "ftfp-greedy with mop-up must be feasible: " << why);
  }
  return outcome;
}

}  // namespace dflp::core
