#include "core/quantize.h"

#include <cmath>

#include "common/check.h"

namespace dflp::core {

CostCodec::CostCodec(double min_positive, double gamma)
    : min_positive_(min_positive), gamma_(gamma),
      log1g_(std::log1p(gamma)) {
  DFLP_CHECK_MSG(min_positive > 0.0 && std::isfinite(min_positive),
                 "codec anchor must be positive, got " << min_positive);
  DFLP_CHECK_MSG(gamma > 0.0 && gamma <= 1.0, "gamma out of (0,1]: " << gamma);
}

std::int64_t CostCodec::encode(double cost) const {
  DFLP_CHECK_MSG(cost >= 0.0 && std::isfinite(cost),
                 "cannot encode cost " << cost);
  if (cost == 0.0) return 0;
  // Bucket 1 covers (0, min_positive]; bucket s covers
  // (min_positive*(1+g)^(s-2), min_positive*(1+g)^(s-1)].
  if (cost <= min_positive_) return 1;
  const double s = std::ceil(std::log(cost / min_positive_) / log1g_);
  return 1 + static_cast<std::int64_t>(s);
}

double CostCodec::decode(std::int64_t code) const {
  DFLP_CHECK_MSG(code >= 0, "negative cost code " << code);
  if (code == 0) return 0.0;
  return min_positive_ * std::pow(1.0 + gamma_,
                                  static_cast<double>(code - 1));
}

}  // namespace dflp::core
