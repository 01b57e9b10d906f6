// Streaming summary statistics for experiment reporting.
#pragma once

#include <cstddef>

namespace dflp {

/// Single-pass accumulator: count, incremental mean and max, without
/// storing samples.
class RunningStat {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dflp
