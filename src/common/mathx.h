// Small numeric helpers shared across subsystems.
#pragma once

#include <cstdint>
#include <vector>

namespace dflp {

/// ceil(log2(x)) for x >= 1; returns 0 for x == 1.
[[nodiscard]] int ceil_log2(std::uint64_t x) noexcept;

/// Geometric threshold ladder: values lo * beta^i for i = 0..count-1.
/// Used by the scale schedule of the distributed algorithms.
[[nodiscard]] std::vector<double> geometric_levels(double lo, double beta,
                                                   int count);

}  // namespace dflp
