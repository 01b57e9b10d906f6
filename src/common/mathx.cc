#include "common/mathx.h"

#include <bit>

#include "common/check.h"

namespace dflp {

int ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return 64 - std::countl_zero(x - 1);
}

std::vector<double> geometric_levels(double lo, double beta, int count) {
  DFLP_CHECK_MSG(lo > 0.0 && beta > 1.0 && count >= 1,
                 "lo=" << lo << " beta=" << beta << " count=" << count);
  std::vector<double> levels;
  levels.reserve(static_cast<std::size_t>(count));
  double v = lo;
  for (int i = 0; i < count; ++i) {
    levels.push_back(v);
    v *= beta;
  }
  return levels;
}

}  // namespace dflp
