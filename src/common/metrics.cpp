#include "common/metrics.h"

namespace turret::metrics {

std::uint64_t to_fixed(double v) {
  if (!(v > 0)) return 0;  // negatives and NaN clamp to the zero bucket
  const double scaled = v * kValueScale;
  // Saturate far above any plausible metric value instead of invoking UB on
  // the double->u64 cast.
  if (scaled >= 18446744073709549568.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(scaled);
}

double from_fixed(std::uint64_t v) {
  return static_cast<double>(v) / kValueScale;
}

double quantile_value(const Histogram& h, double q) {
  return from_fixed(h.quantile(q));
}

}  // namespace turret::metrics
