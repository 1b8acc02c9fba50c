#include "common/stats.hpp"

#include <cmath>

namespace sldf {

void Histogram::add(double x) {
  ++total_;
  if (x < 0) x = 0;
  const auto b = static_cast<std::size_t>(x / width_);
  if (b >= max_buckets_) {
    ++overflow_;
    return;
  }
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return std::nan("");
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) return (static_cast<double>(b) + 1.0) * width_;
  }
  return static_cast<double>(buckets_.size()) * width_;  // overflow bucket
}

}  // namespace sldf
