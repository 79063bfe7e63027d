#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

bool PercentileSupported(size_t n, double q) {
  // Compared in integers of basis points so p90 at n = 100 is exactly 10.
  const long long q_bp = std::llround(q * 10000.0);
  return static_cast<long long>(n) * (10000 - q_bp) >=
         static_cast<long long>(kMinSamplesBeyond) * 10000;
}

std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q) {
  if (!PercentileSupported(samples.size(), q)) return std::nullopt;
  return Quantile(samples, q);
}

}  // namespace perfbench
