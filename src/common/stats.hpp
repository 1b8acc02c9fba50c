// Online statistics accumulators used by the simulator's measurement phase.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace sldf {

/// Welford online mean/variance plus min/max.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const OnlineStats& o);

  /// Checkpoint walk (see sim/checkpoint.hpp) over the raw accumulators.
  template <typename Io>
  void checkpoint(Io& io) {
    io.pod(n_);
    io.pod(mean_);
    io.pod(m2_);
    io.pod(min_);
    io.pod(max_);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact nearest-rank percentile (q in [0, 100]) of an unsorted sample.
/// Sorts its by-value copy; NaN on an empty sample. Used where the sample
/// is small enough to keep whole (per-tenant message latencies) — the
/// Histogram below is the streaming estimate for engine-scale counts.
inline double exact_percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  if (q <= 0.0) return xs.front();
  if (q >= 100.0) return xs.back();
  // Nearest-rank: smallest element with at least ceil(q/100 * n) of the
  // sample at or below it.
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return xs[rank == 0 ? 0 : rank - 1];
}

/// Fixed-bucket histogram for latency distributions (percentile estimates).
class Histogram {
 public:
  explicit Histogram(double bucket_width = 1.0, std::size_t max_buckets = 65536)
      : width_(bucket_width), buckets_(), max_buckets_(max_buckets) {}

  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// q in [0,1]; returns an upper-edge estimate of the q-quantile.
  [[nodiscard]] double quantile(double q) const;

  /// Checkpoint walk (see sim/checkpoint.hpp): bucket counts + totals.
  /// Width and max are ctor-fixed; restore adopts the saved bucket count.
  template <typename Io>
  void checkpoint(Io& io) {
    io.vec(buckets_);
    io.pod(total_);
    io.pod(overflow_);
  }

 private:
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::size_t max_buckets_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace sldf
