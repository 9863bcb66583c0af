// Tests for weight scaling: factor math and the compensation property.
#include <gtest/gtest.h>

#include "coding/registry.h"
#include "common/error.h"
#include "core/weight_scaling.h"
#include "noise/deletion.h"
#include "snn/topology.h"
#include "spike_test_util.h"
#include "tensor/stats.h"

namespace tsnn::core {
namespace {

using snn::test::corrupted;
using snn::test::one_spike;

TEST(WeightScaling, FactorRestoresMean) {
  EXPECT_FLOAT_EQ(weight_scaling_factor(0.0), 1.0f);
  EXPECT_FLOAT_EQ(weight_scaling_factor(0.5), 2.0f);
  EXPECT_FLOAT_EQ(weight_scaling_factor(0.8), 5.0f);
  EXPECT_NEAR(weight_scaling_factor(0.2) * (1.0 - 0.2), 1.0, 1e-6);
}

TEST(WeightScaling, FactorIncreasesWithP) {
  float prev = 0.0f;
  for (double p = 0.0; p < 0.95; p += 0.1) {
    const float c = weight_scaling_factor(p);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(WeightScaling, RejectsInvalidP) {
  EXPECT_THROW(weight_scaling_factor(1.0), InvalidArgument);
  EXPECT_THROW(weight_scaling_factor(-0.1), InvalidArgument);
}

TEST(WeightScaling, ScalesAllStages) {
  snn::SnnModel model(Shape{2});
  model.add_stage("fc1", std::make_unique<snn::DenseTopology>(
                             Tensor{Shape{2, 2}, {1, 0, 0, 1}}));
  model.add_stage("fc2", std::make_unique<snn::DenseTopology>(
                             Tensor{Shape{1, 2}, {1, 1}}));
  apply_weight_scaling(model, 0.5);  // C = 2

  std::vector<float> u(2, 0.0f);
  model.stage(0).synapse->propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 2.0f);
  std::vector<float> v(1, 0.0f);
  model.stage(1).synapse->propagate(one_spike(0, 1.0f), v.data());
  EXPECT_FLOAT_EQ(v[0], 2.0f);
}

TEST(WeightScaling, WithWeightScalingLeavesOriginalUntouched) {
  snn::SnnModel model(Shape{1});
  model.add_stage("fc", std::make_unique<snn::DenseTopology>(
                            Tensor{Shape{1, 1}, {1.0f}}));
  const snn::SnnModel scaled = with_weight_scaling(model, 0.75);

  std::vector<float> u(1, 0.0f);
  model.stage(0).synapse->propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 1.0f);
  u[0] = 0.0f;
  scaled.stage(0).synapse->propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 4.0f);
}

TEST(WeightScaling, CompensatesDeletedRateCode) {
  // Statistical property behind Fig. 4: decoded activation after deletion,
  // multiplied by C = 1/(1-p), recovers the clean value in expectation.
  const auto scheme = coding::make_scheme(snn::Coding::kRate);
  Tensor a{Shape{1}, {0.5f}};
  const snn::EventBuffer clean = snn::test::encode(*scheme, a);
  const float clean_value = scheme->decode(clean)[0];

  for (const double p : {0.2, 0.5, 0.8}) {
    noise::DeletionNoise noise(p);
    Rng rng(61);
    std::vector<float> compensated;
    for (int i = 0; i < 500; ++i) {
      const float v = scheme->decode(corrupted(noise, clean, rng))[0];
      compensated.push_back(v * weight_scaling_factor(p));
    }
    EXPECT_NEAR(stats::mean(compensated), clean_value, 0.05) << "p=" << p;
  }
}

TEST(WeightScaling, OverActivatesSurvivingTtfsSpikes) {
  // The paper's motivation for TTAS: with TTFS, weight scaling turns the
  // surviving all-or-none activations into C*A (over-activation), while the
  // deleted ones stay 0 -- the mean is right but every sample is wrong.
  const auto scheme = coding::make_scheme(snn::Coding::kTtfs);
  Tensor a{Shape{1}, {0.5f}};
  const snn::EventBuffer clean = snn::test::encode(*scheme, a);
  const float clean_value = scheme->decode(clean)[0];
  const double p = 0.5;
  noise::DeletionNoise noise(p);
  Rng rng(67);
  int exact = 0;
  for (int i = 0; i < 400; ++i) {
    const float v =
        scheme->decode(corrupted(noise, clean, rng))[0] * weight_scaling_factor(p);
    // Delivered value is either 0 or C*A; never the clean A.
    const bool is_zero = v < 1e-6f;
    const bool is_over = std::abs(v - 2.0f * clean_value) < 1e-3f;
    EXPECT_TRUE(is_zero || is_over);
    exact += std::abs(v - clean_value) < 1e-3f ? 1 : 0;
  }
  EXPECT_EQ(exact, 0);
}

}  // namespace
}  // namespace tsnn::core
