// Order statistics for benchmark samples: median, quartiles (the same
// "exclusive" method as Python's statistics.quantiles(n=4)), the
// inter-quartile range, and the tail percentile rule of the benchmark
// method: report the highest percentile that still has at least ten samples
// beyond it, together with the sample count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
  /// IQR as a share of the median (0 when the median is 0).
  [[nodiscard]] double spread() const { return median != 0 ? iqr() / median : 0; }
};

/// Median of `v` (0 for an empty sample).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles exactly as Python's statistics.quantiles(v, n=4) computes them
/// (method "exclusive", including its extrapolation for fewer than three
/// samples). A single sample yields that sample for all three.
[[nodiscard]] inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t ld = v.size();
  if (ld == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const auto at = [&](long i) {
    const long m = static_cast<long>(ld) + 1;
    long j = i * m / 4;
    j = std::clamp<long>(j, 1, static_cast<long>(ld) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = at(1);
  q.median = at(2);
  q.q3 = at(3);
  return q;
}

/// The tail of a latency sample: the highest of p99/p95/p90/p75/p50 that
/// leaves at least `min_beyond` samples strictly above its rank, evaluated
/// as the nearest-rank value. `percentile` is 0 when even the median has
/// fewer than `min_beyond` samples beyond it (the value is then the max and
/// must be read as "not enough samples for a tail").
struct Tail {
  double percentile = 0;  // 99, 95, 90, 75, 50, or 0
  double value = 0;
  std::size_t samples = 0;
};

[[nodiscard]] inline Tail tail(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest value with at least p % of samples <= it.
    std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(n)) ++rank;
    rank = std::max<std::size_t>(rank, 1);
    if (n - rank >= min_beyond) {
      t.percentile = p;
      // At p50 report the median itself, so the tail never reads below it.
      t.value = p == 50.0 ? median(v) : v[rank - 1];
      return t;
    }
  }
  t.value = v.back();
  return t;
}

/// "p95 of 400 samples", or "max of 8 samples (too few for a tail)".
[[nodiscard]] inline std::string describe(const Tail& t) {
  char buf[96];
  if (t.percentile == 0) {
    std::snprintf(buf, sizeof buf, "max of %zu samples (too few for a tail)", t.samples);
  } else {
    std::snprintf(buf, sizeof buf, "p%.0f of %zu samples", t.percentile, t.samples);
  }
  return buf;
}

}  // namespace perfbench
