#include "common/stats.h"

#include <cmath>

namespace dflp {

void RunningStat::add(double x) noexcept {
  max_ = n_ == 0 ? x : std::fmax(max_, x);
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double RunningStat::mean() const noexcept { return n_ ? mean_ : 0.0; }

double RunningStat::max() const noexcept { return n_ ? max_ : 0.0; }

}  // namespace dflp
