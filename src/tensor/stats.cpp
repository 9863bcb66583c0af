#include "tensor/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tsnn::stats {

double mean(const std::vector<float>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const float x : v) {
    acc += x;
  }
  return acc / static_cast<double>(v.size());
}

double variance(const std::vector<float>& v) {
  if (v.size() < 2) {
    return 0.0;
  }
  const double m = mean(v);
  double acc = 0.0;
  for (const float x : v) {
    const double d = x - m;
    acc += d * d;
  }
  return acc / static_cast<double>(v.size() - 1);
}

double stddev(const std::vector<float>& v) { return std::sqrt(variance(v)); }

double percentile(std::vector<float> v, double q) {
  TSNN_CHECK_MSG(!v.empty(), "percentile of empty vector");
  TSNN_CHECK_MSG(q >= 0.0 && q <= 100.0, "percentile q out of [0,100]: " << q);
  if (v.size() == 1) {
    return v.front();
  }
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::floor(pos));
  const auto hi_idx = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo_idx);
  // The two order statistics a full sort would put at lo_idx and hi_idx:
  // nth_element places the lo_idx-th, and hi_idx is lo_idx or lo_idx + 1,
  // whose value is the minimum of the partition above it.
  const auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(lo_idx);
  std::nth_element(v.begin(), lo_it, v.end());
  const float lo = *lo_it;
  const float hi = hi_idx == lo_idx ? lo : *std::min_element(lo_it + 1, v.end());
  return lo + frac * (hi - lo);
}

std::size_t Histogram::total() const {
  std::size_t n = 0;
  for (const std::size_t c : counts) {
    n += c;
  }
  return n;
}

double Histogram::fraction(std::size_t i) const {
  TSNN_CHECK_MSG(i < counts.size(), "histogram bin out of range");
  const std::size_t n = total();
  return n == 0 ? 0.0 : static_cast<double>(counts[i]) / static_cast<double>(n);
}

double Histogram::bin_center(std::size_t i) const {
  TSNN_CHECK_MSG(i < counts.size(), "histogram bin out of range");
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + (static_cast<double>(i) + 0.5) * width;
}

Histogram histogram(const std::vector<float>& v, std::size_t bins, double lo,
                    double hi) {
  TSNN_CHECK_MSG(bins > 0, "histogram needs at least one bin");
  TSNN_CHECK_MSG(hi > lo, "histogram range inverted");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (const float x : v) {
    auto bin = static_cast<std::int64_t>(std::floor((x - lo) / width));
    bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(bins) - 1);
    ++h.counts[static_cast<std::size_t>(bin)];
  }
  return h;
}

double tensor_mean(const Tensor& t) {
  if (t.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    acc += t[i];
  }
  return acc / static_cast<double>(t.numel());
}

double tensor_percentile(const Tensor& t, double q) {
  std::vector<float> v(t.data(), t.data() + t.numel());
  return percentile(std::move(v), q);
}

}  // namespace tsnn::stats
