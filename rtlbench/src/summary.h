// Order statistics for the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace rtlbench {

// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// The highest of the usual tail percentiles that still has at least 10
// samples above it. Falls back to the maximum (percentile 100, 0 samples
// above) when the sample is too small for any of them.
struct Tail {
  double value = 0;
  double percentile = 100;
  double samples_above = 0;
};

inline Tail tail(const std::vector<double>& values) {
  Tail out;
  if (values.empty()) return out;
  out.value = *std::max_element(values.begin(), values.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double v = quantile(values, p / 100);
    const auto above = std::count_if(values.begin(), values.end(),
                                     [v](double x) { return x > v; });
    if (above >= 10) {
      out = {v, p, static_cast<double>(above)};
      break;
    }
  }
  return out;
}

}  // namespace rtlbench
