// Oracles that tests compare the library against; no binary uses them.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "fl/instance.h"

namespace dflp {

/// Harmonic number H_n = sum_{i=1..n} 1/i (the greedy set-cover ratio):
/// the exact sum up to 4096, the asymptotic expansion above.
[[nodiscard]] inline double harmonic(std::uint64_t n) noexcept {
  if (n == 0) return 0.0;
  if (n <= 4096) {
    double h = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  constexpr double euler_gamma = 0.57721566490153286060651209;
  const double nn = static_cast<double>(n);
  return std::log(nn) + euler_gamma + 1.0 / (2.0 * nn) -
         1.0 / (12.0 * nn * nn);
}

namespace lp {

/// Verifies that `alpha` satisfies every facility budget within `tol`, so
/// that sum(alpha) is a genuine lower bound.
[[nodiscard]] inline bool is_dual_feasible(const fl::Instance& inst,
                                           const std::vector<double>& alpha,
                                           double tol = 1e-7) {
  if (alpha.size() != static_cast<std::size_t>(inst.num_clients()))
    return false;
  for (double a : alpha)
    if (!(a >= -tol) || !std::isfinite(a)) return false;
  for (fl::FacilityId i = 0; i < inst.num_facilities(); ++i) {
    double paid = 0.0;
    for (const fl::FacilityEdge& e : inst.facility_edges(i)) {
      const double beta =
          alpha[static_cast<std::size_t>(e.client)] - e.cost;
      if (beta > 0.0) paid += beta;
    }
    if (paid > inst.opening_cost(i) + tol) return false;
  }
  return true;
}

}  // namespace lp
}  // namespace dflp
