// Sample statistics for the serving benchmark: percentiles, the tail rule
// and histogram-delta quantiles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// Percentile `p` (0..100) of `samples` by linear interpolation between
/// order statistics (numpy's default). 0 when empty.
double percentile(std::vector<double> samples, double p);

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile with at least 10 samples beyond it, capped at 99. Below 20
/// samples no percentile above the median qualifies, so the median is used.
int tail_percentile(std::size_t n);

/// Samples strictly beyond percentile `p` of a sample of `n`, as the rule
/// above counts them: n * (100 - p) / 100, rounded down.
std::size_t samples_beyond(std::size_t n, int p);

/// A latency summary of one sample: the median, and the tail as the mean
/// of the samples beyond the rule's percentile (at least 10 of them from
/// 20 samples up). A single order statistic out in the tail jumps between
/// the modes of a mixed distribution, such as token gaps with and without
/// a prefill chunk in their step, when the minor mode's share sits near
/// the percentile; the mean beyond it moves smoothly with that share.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  int tail_p = 50;
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& samples);

/// Quantile (0..1) from Prometheus-style bucket counts, interpolating
/// linearly inside the bucket holding the target rank (the estimate
/// obs::Histogram::quantile makes), over counts that may be a delta of two
/// snapshots. `counts` has upper_bounds.size() + 1 entries; the last is
/// the +Inf bucket, which clamps to the largest finite bound.
double bucket_quantile(const std::vector<double>& upper_bounds,
                       const std::vector<std::uint64_t>& counts, double q);

}  // namespace servebench
