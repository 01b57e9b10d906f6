#include "core/params.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/mathx.h"
#include "netsim/network.h"

namespace dflp::core {

std::uint64_t MwSchedule::first_admitting_round(
    std::uint64_t period, std::uint64_t from, double ratio,
    std::uint64_t otherwise) const {
  const std::uint64_t rung = period * static_cast<std::uint64_t>(subphases);
  const std::uint64_t first = (from + period - 1) / period * period;
  for (std::uint64_t level = first / rung;
       level < static_cast<std::uint64_t>(levels); ++level) {
    if (ratio <= thresholds[static_cast<std::size_t>(level)])
      return std::max(first, level * rung);
  }
  return otherwise;
}

InstanceBounds InstanceBounds::of(const fl::Instance& inst) {
  InstanceBounds b;
  b.max_facilities = inst.num_facilities();
  b.max_network_nodes = inst.num_facilities() + inst.num_clients();
  b.min_positive_cost = inst.cost_profile().min_positive;
  b.max_cost = inst.cost_profile().max_value;
  b.max_facility_degree = inst.max_facility_degree();
  return b;
}

bool InstanceBounds::dominates(const InstanceBounds& other) const {
  return max_facilities >= other.max_facilities &&
         max_network_nodes >= other.max_network_nodes &&
         min_positive_cost <= other.min_positive_cost &&
         max_cost >= other.max_cost &&
         max_facility_degree >= other.max_facility_degree;
}

MwSchedule derive_schedule_from_bounds(const InstanceBounds& bounds,
                                       const MwParams& params) {
  DFLP_CHECK_MSG(params.k >= 1, "k must be >= 1, got " << params.k);
  DFLP_CHECK(params.subphases_override >= 0);
  DFLP_CHECK_MSG(bounds.max_facilities >= 1 && bounds.max_network_nodes >= 2,
                 "bounds must admit at least one facility and one client");

  const auto m = static_cast<double>(bounds.max_facilities);
  const bool bounds_positive = std::isfinite(bounds.min_positive_cost) &&
                               bounds.min_positive_cost > 0.0;
  const double rho =
      std::max(1.0, bounds_positive && bounds.max_cost > 0.0
                        ? bounds.max_cost / bounds.min_positive_cost
                        : 1.0);
  const double deg =
      static_cast<double>(std::max(1, bounds.max_facility_degree));

  MwSchedule sched;
  sched.k = params.k;
  const int big_l =
      std::max(1, static_cast<int>(std::ceil(std::sqrt(
                      static_cast<double>(params.k)))));
  sched.subphases =
      params.subphases_override > 0 ? params.subphases_override : big_l;

  // beta = (m * rho)^(1/L): the paper's discretization ratio. Clamp below
  // at 1.5 so the ladder always makes progress even for tiny instances or
  // huge k.
  sched.beta = std::max(1.5, std::pow(std::max(2.0, m * rho),
                                      1.0 / static_cast<double>(big_l)));

  // Cost-effectiveness range implied by the a-priori bounds: a best star's
  // ratio lies in [min_positive/(deg+1), max_value*(deg+1)] unless it is
  // exactly zero (all-free star). A dedicated rung at 0 is always included
  // — the profile cannot tell whether zero costs occur, and the rung costs
  // one extra scale only.
  const bool has_positive = bounds_positive;
  if (has_positive) {
    const double e_lo = bounds.min_positive_cost / (deg + 1.0);
    const double e_hi = bounds.max_cost * (deg + 1.0);
    const int rungs = std::max(
        1, static_cast<int>(std::ceil(std::log(e_hi / e_lo) /
                                      std::log(sched.beta))) +
               1);
    sched.thresholds = geometric_levels(e_lo * sched.beta, sched.beta, rungs);
  }
  sched.thresholds.insert(sched.thresholds.begin(), 0.0);
  DFLP_CHECK(!sched.thresholds.empty());
  sched.levels = static_cast<int>(sched.thresholds.size());

  // On-wire codec: anchor at the smallest positive cost (or 1 if none).
  const double anchor = has_positive ? bounds.min_positive_cost : 1.0;
  sched.codec = CostCodec(anchor, 0.25);

  sched.num_network_nodes = bounds.max_network_nodes;
  sched.bit_budget = net::congest_bit_budget(
      static_cast<std::size_t>(sched.num_network_nodes));

  // Fractional grid: beta^(-y_scale) <= 1/(m * rho * (deg+1)).
  sched.y_scale = std::max(
      1, static_cast<int>(std::ceil(std::log(std::max(2.0, m * rho *
                                                               (deg + 1.0))) /
                                    std::log(sched.beta))));

  sched.rounding_phases = std::max(
      2, 2 * ceil_log2(static_cast<std::uint64_t>(sched.num_network_nodes) +
                       2));
  return sched;
}

MwSchedule derive_schedule(const fl::Instance& inst, const MwParams& params) {
  if (params.pinned_schedule != nullptr) return *params.pinned_schedule;
  return derive_schedule_from_bounds(InstanceBounds::of(inst), params);
}

}  // namespace dflp::core
