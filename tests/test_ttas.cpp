// Tests for TTAS coding -- the paper's contribution. Verifies the IFB burst
// mechanics, the kernel-sum scale factor, and the two robustness properties
// that motivate TTAS: graceful degradation under deletion and variance
// reduction under jitter.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/registry.h"
#include "core/ttas.h"
#include "noise/deletion.h"
#include "noise/jitter.h"
#include "snn/topology.h"
#include "spike_test_util.h"
#include "tensor/stats.h"

namespace tsnn::core {
namespace {

using snn::Coding;
using snn::CodingParams;
using snn::EventBuffer;
using snn::LayerRole;
using snn::test::corrupted;
using snn::test::encode;

TEST(Ttas, KindIsTtas) {
  const auto scheme = make_ttas(5);
  EXPECT_EQ(scheme->kind(), Coding::kTtas);
  EXPECT_EQ(scheme->name(), "ttas(5)");
}

TEST(Ttas, Ttas1EquivalentToTtfs) {
  // TTAS with burst duration 1 degenerates to plain TTFS: identical trains.
  const auto ttas1 = make_ttas(1);
  const auto ttfs = coding::make_scheme(Coding::kTtfs);
  Tensor a{Shape{10}};
  for (std::size_t i = 0; i < 10; ++i) {
    a[i] = 0.08f * static_cast<float>(i + 1);
  }
  EXPECT_EQ(snn::test::events_of(encode(*ttas1, a)),
            snn::test::events_of(encode(*ttfs, a)));
}

TEST(Ttas, BurstSpikesAreConsecutiveFromFirstSpike) {
  const auto scheme = make_ttas(4);
  Tensor a{Shape{1}, {0.5f}};
  const EventBuffer r = encode(*scheme, a);
  EXPECT_EQ(r.size(), 4u);
  const std::int32_t t1 = snn::test::first_spike_times(r)[0];
  for (std::int32_t j = 0; j < 4; ++j) {
    EXPECT_EQ(r.step_count(static_cast<std::size_t>(t1 + j)), 1u);
  }
}

TEST(Ttas, CleanDecodeMatchesTtfsValue) {
  // C_A folding makes the delivered value independent of burst duration.
  Tensor a{Shape{6}, {0.1f, 0.25f, 0.4f, 0.55f, 0.7f, 0.9f}};
  const auto ttfs = coding::make_scheme(Coding::kTtfs);
  const Tensor base = ttfs->decode(encode(*ttfs, a));
  for (const std::size_t ta : {2, 3, 5, 10}) {
    const auto scheme = make_ttas(ta);
    const Tensor decoded = scheme->decode(encode(*scheme, a));
    for (std::size_t i = 0; i < a.numel(); ++i) {
      EXPECT_NEAR(decoded[i], base[i], 1e-4f) << "ta=" << ta << " i=" << i;
    }
  }
}

TEST(Ttas, KernelSumScaleIndependentOfFirstSpikeTime) {
  // C_A = z(t1)/Z_hat must not depend on t1 for the exponential kernel.
  // Use activations exactly on the kernel grid e^{-t/tau} so quantization
  // vanishes and the decode must be exact for both early and late spikes.
  const auto scheme = make_ttas(5);
  const float tau = scheme->params().tau;
  Tensor a{Shape{2}};
  a[0] = std::exp(-1.0f / tau);   // t1 = 1 (early)
  a[1] = std::exp(-20.0f / tau);  // t1 = 20 (late)
  const Tensor decoded = scheme->decode(encode(*scheme, a));
  EXPECT_NEAR(decoded[0] / a[0], 1.0f, 1e-3f);
  EXPECT_NEAR(decoded[1] / a[1], 1.0f, 1e-3f);
}

TEST(Ttas, DeletionDegradesGracefully) {
  // TTFS under deletion is all-or-none; TTAS(k) delivers intermediate
  // fractions. Check the delivered-value distribution directly.
  const float a_val = 0.6f;
  Tensor a{Shape{1}, {a_val}};
  const double p = 0.5;

  auto delivered_values = [&](const snn::CodingScheme& scheme) {
    const EventBuffer clean = encode(scheme, a);
    noise::DeletionNoise noise(p);
    Rng rng(7);
    std::vector<float> vals;
    for (int i = 0; i < 800; ++i) {
      vals.push_back(scheme.decode(corrupted(noise, clean, rng))[0]);
    }
    return vals;
  };

  const auto ttfs_vals = delivered_values(*coding::make_scheme(Coding::kTtfs));
  const auto ttas_vals = delivered_values(*make_ttas(5));

  // TTFS: strictly 0 or full value.
  for (const float v : ttfs_vals) {
    EXPECT_TRUE(v < 1e-6f || std::fabs(v - ttfs_vals[0] / (ttfs_vals[0] > 0 ? 1 : 1)) >= 0.0f);
    EXPECT_TRUE(v < 1e-6f || v > 0.3f);
  }
  // TTAS: intermediate values exist.
  int intermediate = 0;
  for (const float v : ttas_vals) {
    if (v > 0.1f * a_val && v < 0.9f * a_val) {
      ++intermediate;
    }
  }
  EXPECT_GT(intermediate, 100);

  // Expected value is (1-p)*clean for both.
  const auto ttas5 = make_ttas(5);
  const float ttas_clean = ttas5->decode(encode(*ttas5, a))[0];
  EXPECT_NEAR(stats::mean(ttas_vals), (1.0 - p) * ttas_clean, 0.03);

  // All-or-none total loss is much rarer for TTAS: P(all 5 deleted) = p^5.
  int ttas_zero = 0;
  for (const float v : ttas_vals) {
    ttas_zero += v < 1e-6f ? 1 : 0;
  }
  int ttfs_zero = 0;
  for (const float v : ttfs_vals) {
    ttfs_zero += v < 1e-6f ? 1 : 0;
  }
  EXPECT_LT(ttas_zero, ttfs_zero / 4);
}

TEST(Ttas, JitterVarianceShrinksWithBurstDuration) {
  // The "average spike time" property: delivered value variance under
  // jitter decreases as t_a grows.
  Tensor a{Shape{1}, {0.5f}};
  const double sigma = 1.5;

  auto delivered_stddev = [&](const snn::CodingScheme& scheme) {
    const EventBuffer clean = encode(scheme, a);
    noise::JitterNoise noise(sigma);
    Rng rng(21);
    std::vector<float> vals;
    for (int i = 0; i < 600; ++i) {
      vals.push_back(scheme.decode(corrupted(noise, clean, rng))[0]);
    }
    return stats::stddev(vals);
  };

  const double sd1 = delivered_stddev(*coding::make_scheme(Coding::kTtfs));
  const double sd3 = delivered_stddev(*make_ttas(3));
  const double sd10 = delivered_stddev(*make_ttas(10));
  EXPECT_LT(sd3, sd1);
  EXPECT_LT(sd10, sd3);
  // Roughly 1/sqrt(k) scaling: sd10 should be well under half of sd1.
  EXPECT_LT(sd10, 0.55 * sd1);
}

TEST(Ttas, LayerBurstMatchesEq4Reset) {
  // A hidden TTAS neuron must emit exactly burst_duration consecutive
  // spikes starting at its first-crossing time, then stay silent (-inf
  // reset): paper Eq. 4.
  const auto scheme = make_ttas(3);
  Tensor w{Shape{1, 1}, {1.0f}};
  snn::DenseTopology syn{w};
  Tensor a{Shape{1}, {0.6f}};
  const EventBuffer out = snn::test::run_layer(
      *scheme, encode(*scheme, a), syn, LayerRole::kFirstHidden);
  EXPECT_EQ(out.size(), 3u);
  const std::int32_t t1 = snn::test::first_spike_times(out)[0];
  ASSERT_GE(t1, 0);
  for (std::int32_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out.step_count(static_cast<std::size_t>(t1 + j)), 1u);
  }
  // Nothing after the burst.
  for (std::size_t t = static_cast<std::size_t>(t1 + 3); t < out.window(); ++t) {
    EXPECT_EQ(out.step_count(t), 0u);
  }
}

TEST(Ttas, MakeTtasValidatesParams) {
  snn::CodingParams params = coding::default_params(Coding::kTtas);
  params.burst_duration = 0;
  EXPECT_THROW(TtasScheme{params}, InvalidArgument);
}

TEST(Ttas, FactoryFromParams) {
  snn::CodingParams params = coding::default_params(Coding::kTtas);
  params.burst_duration = 7;
  const auto scheme = make_ttas(params);
  EXPECT_EQ(scheme->name(), "ttas(7)");
}

}  // namespace
}  // namespace tsnn::core
