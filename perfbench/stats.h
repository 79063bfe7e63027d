// Order statistics for the benchmark's reports.
//
// A timing is reported as its median and a tail percentile, each only when
// the run took enough samples to support it: a percentile p needs at least
// kMinSamplesBeyond samples above it, i.e. n * (1 - p) >= 10. A p90 needs
// 100 samples; a median needs 20. An unsupported percentile is missing, so a
// p99 is never printed from a handful of samples.

#ifndef OLAPIDX_PERFBENCH_STATS_H_
#define OLAPIDX_PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinSamplesBeyond = 10;

// Linearly interpolated quantile (q in [0, 1]) of the samples, the usual
// "type 7" definition: the median of an even count is the mean of the two
// middle values. Returns 0 for no samples.
double Quantile(std::vector<double> samples, double q);

// Quantile(samples, 0.5).
double Median(const std::vector<double>& samples);

// True when `n` samples put at least kMinSamplesBeyond beyond percentile
// `q` (n * (1 - q) >= 10).
bool PercentileSupported(size_t n, double q);

// Quantile(samples, q) when PercentileSupported, else nullopt.
std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double q);

}  // namespace perfbench

#endif  // OLAPIDX_PERFBENCH_STATS_H_
