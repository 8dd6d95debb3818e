#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  const double loValue = samples[lo];
  if (hi == lo) return loValue;
  // The next rank is the smallest element above position lo.
  const double hiValue =
      *std::min_element(samples.begin() + lo + 1, samples.end());
  return loValue + (rank - static_cast<double>(lo)) * (hiValue - loValue);
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

dapple::obs::HistogramSnapshot histogramDelta(
    const dapple::obs::HistogramSnapshot& after,
    const dapple::obs::HistogramSnapshot& before) {
  dapple::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

double histogramQuantile(const dapple::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count - 1);
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n == 0) continue;
    if (seen + n > rank) {
      if (i == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      // Rank r of the bucket's n sits at (r + 0.5) / n of its width; a
      // fractional rank past the last sample stops at the bucket's top.
      return lo + (hi - lo) * std::min((rank - seen + 0.5) / n, 1.0);
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

}  // namespace perfbench
