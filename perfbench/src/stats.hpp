#pragma once
// Order statistics for the benchmark: exact sample percentiles and
// percentiles read from the library's log2-bucket histograms (differenced
// over the measured window).

#include <cstdint>
#include <vector>

#include "dapple/obs/metrics.hpp"

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `samples` by linear interpolation between
/// the two nearest ranks — the same definition as numpy's default.  Reorders
/// `samples`.  Returns 0 for an empty input.
double percentile(std::vector<double>& samples, double q);

/// percentile(samples, 0.5).
double median(std::vector<double> samples);

/// `num / den`, or 0 when `den` is 0 (ratios over an empty window).
double ratio(double num, double den);

/// Bucket-wise `after - before`: the histogram of the values recorded
/// between two snapshots.
dapple::obs::HistogramSnapshot histogramDelta(
    const dapple::obs::HistogramSnapshot& after,
    const dapple::obs::HistogramSnapshot& before);

/// The q-quantile of a log2-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank (bucket i >= 1 spans [2^(i-1), 2^i)), and
/// never outside it.  HistogramSnapshot::quantile returns the bucket's
/// upper bound, a figure that reads the same on run after run until it
/// jumps by 2x; this one moves with the sample counts, still only as exact
/// as the bucket width allows.  0 for an empty histogram.
double histogramQuantile(const dapple::obs::HistogramSnapshot& h, double q);

}  // namespace perfbench
