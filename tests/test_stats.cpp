// Tests for descriptive statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/stats.h"

namespace tsnn {
namespace {

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::mean({2.0f}), 2.0);
  EXPECT_DOUBLE_EQ(stats::mean({1.0f, 2.0f, 3.0f}), 2.0);
}

TEST(Stats, VarianceUnbiased) {
  EXPECT_DOUBLE_EQ(stats::variance({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::variance({5.0f}), 0.0);
  // Sample variance of {1,2,3} = 1.
  EXPECT_DOUBLE_EQ(stats::variance({1.0f, 2.0f, 3.0f}), 1.0);
  EXPECT_DOUBLE_EQ(stats::stddev({1.0f, 2.0f, 3.0f}), 1.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<float> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 12.5), 1.5);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<float> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 3.0);
}

TEST(Stats, PercentileErrors) {
  EXPECT_THROW(stats::percentile({}, 50), InvalidArgument);
  EXPECT_THROW(stats::percentile({1.0f}, 101), InvalidArgument);
}

/// The sort-based definition percentile() must reproduce bit for bit.
double sorted_percentile(std::vector<float> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v.front();
  }
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::floor(pos));
  const auto hi_idx = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo_idx);
  return v[lo_idx] + frac * (v[hi_idx] - v[lo_idx]);
}

TEST(Stats, PercentileEqualsSortedDefinitionExactly) {
  Rng rng(2026);
  std::vector<std::vector<float>> inputs{{3.5f}, {2.0f, -1.0f}, {4, 1, 3, 1, 2}};
  for (const std::size_t n : {7u, 100u, 1001u, 4096u}) {
    std::vector<float> v(n);
    std::vector<float> dups(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<float>(rng.normal(0.0, 3.0));
      // Few distinct values, including both zeros, so order statistics tie.
      dups[i] = static_cast<float>(rng.uniform_index(5)) * 0.25f - 0.5f;
      if (i % 7 == 0) {
        dups[i] = -0.0f;
      }
    }
    inputs.push_back(std::move(v));
    inputs.push_back(std::move(dups));
  }
  for (const std::vector<float>& v : inputs) {
    for (const double q : {0.0, 0.1, 50.0, 99.9, 100.0}) {
      const double want = sorted_percentile(v, q);
      const double got = stats::percentile(v, q);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "n=" << v.size() << " q=" << q << ": " << got << " vs " << want;
    }
  }
}

TEST(Stats, HistogramCountsAndClamping) {
  const auto h = stats::histogram({-1.0f, 0.1f, 0.5f, 0.9f, 2.0f}, 2, 0.0, 1.0);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 2u);  // -1 clamped into bin 0, 0.1 in bin 0
  EXPECT_EQ(h.counts[1], 3u);  // 0.5, 0.9, 2.0 clamped
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_center(1), 0.75);
}

TEST(Stats, HistogramErrors) {
  EXPECT_THROW(stats::histogram({1.0f}, 0, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(stats::histogram({1.0f}, 2, 1.0, 0.0), InvalidArgument);
}

TEST(Stats, TensorMeanAndPercentile) {
  Tensor t{Shape{2, 2}, {1, 2, 3, 4}};
  EXPECT_DOUBLE_EQ(stats::tensor_mean(t), 2.5);
  EXPECT_DOUBLE_EQ(stats::tensor_percentile(t, 100), 4.0);
  EXPECT_DOUBLE_EQ(stats::tensor_mean(Tensor{}), 0.0);
}

TEST(Stats, GaussianSampleMomentsRecovered) {
  Rng rng(77);
  std::vector<float> v;
  v.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    v.push_back(static_cast<float>(rng.normal(1.5, 2.0)));
  }
  EXPECT_NEAR(stats::mean(v), 1.5, 0.05);
  EXPECT_NEAR(stats::stddev(v), 2.0, 0.05);
  // ~50th percentile should be near the mean for a symmetric distribution.
  EXPECT_NEAR(stats::percentile(v, 50), 1.5, 0.06);
}

}  // namespace
}  // namespace tsnn
