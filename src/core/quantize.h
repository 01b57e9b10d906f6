// Logarithmic cost quantization for O(log N)-bit messages.
//
// CONGEST messages cannot carry raw doubles. Offers and coverage reports
// instead carry a *code*: 0 encodes an exact zero, and code s >= 1 encodes
// the geometric bucket min_positive * (1+gamma)^(s-1). Decoding returns the
// bucket's representative, which over-estimates the true value by at most a
// (1+gamma) factor — a constant-factor slack the scale ladder already
// absorbs. Code magnitudes are O(log_(1+gamma)(spread)), i.e. O(log N) bits
// for polynomially-bounded costs, which is what keeps the protocols inside
// the CONGEST budget (and the network *checks* it).
#pragma once

#include <cstdint>

namespace dflp::core {

class CostCodec {
 public:
  CostCodec() = default;

  /// `min_positive` anchors bucket 1; `gamma` is the bucket growth rate.
  CostCodec(double min_positive, double gamma);

  [[nodiscard]] std::int64_t encode(double cost) const;
  [[nodiscard]] double decode(std::int64_t code) const;

 private:
  double min_positive_ = 1.0;
  double gamma_ = 0.25;
  double log1g_ = 0.22314355131420976;  // log(1.25)
};

}  // namespace dflp::core
