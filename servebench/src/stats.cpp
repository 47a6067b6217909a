#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, int p) {
  return n * static_cast<std::size_t>(100 - p) / 100;
}

int tail_percentile(std::size_t n) {
  int p = 99;
  while (p > 50 && samples_beyond(n, p) < 10) --p;
  return p;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = percentile(sorted, 50.0);
  s.tail_p = tail_percentile(s.n);
  const std::size_t beyond =
      std::max<std::size_t>(1, samples_beyond(s.n, s.tail_p));
  s.tail = std::accumulate(sorted.end() - static_cast<std::ptrdiff_t>(beyond),
                           sorted.end(), 0.0) /
           static_cast<double>(beyond);
  return s;
}

double bucket_quantile(const std::vector<double>& upper_bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || upper_bounds.empty()) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double c = static_cast<double>(counts[b]);
    if (c > 0.0 && seen + c >= target) {
      if (b >= upper_bounds.size()) return upper_bounds.back();
      const double lo = b == 0 ? 0.0 : upper_bounds[b - 1];
      const double hi = upper_bounds[b];
      return lo + (hi - lo) * std::clamp((target - seen) / c, 0.0, 1.0);
    }
    seen += c;
  }
  return upper_bounds.back();
}

}  // namespace servebench
