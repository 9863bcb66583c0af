// Property tests shared by all coding schemes: encode -> decode round
// trips, zero/saturation behavior, and spike-count ordering.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/registry.h"
#include "common/rng.h"
#include "core/ttas.h"
#include "spike_test_util.h"

namespace tsnn {
namespace {

using snn::Coding;
using snn::CodingParams;
using snn::CodingScheme;
using snn::test::encode;

struct RoundTripCase {
  Coding coding;
  std::size_t burst_duration;
  double tolerance;  ///< max |decode(encode(a)) - a| over a in [0,1]
};

class CodingRoundTrip : public ::testing::TestWithParam<RoundTripCase> {
 protected:
  snn::CodingSchemePtr make() const {
    CodingParams params = coding::default_params(GetParam().coding);
    params.burst_duration = GetParam().burst_duration;
    return coding::make_scheme(GetParam().coding, params);
  }
};

TEST_P(CodingRoundTrip, RecoversActivationsWithinTolerance) {
  const auto scheme = make();
  const std::size_t n = 64;
  Tensor a{Shape{n}};
  Rng rng(42);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.uniform(0.05, 0.95));
  }
  const Tensor decoded = scheme->decode(encode(*scheme, a));
  ASSERT_EQ(decoded.numel(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(decoded[i], a[i], GetParam().tolerance)
        << scheme->name() << " activation " << a[i];
  }
}

TEST_P(CodingRoundTrip, ZeroActivationsProduceNoSpikes) {
  const auto scheme = make();
  Tensor a{Shape{8}};
  const snn::EventBuffer train = encode(*scheme, a);
  EXPECT_EQ(train.size(), 0u);
  const Tensor decoded = scheme->decode(train);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(decoded[i], 0.0f);
  }
}

TEST_P(CodingRoundTrip, DecodeIsMonotoneInActivation) {
  const auto scheme = make();
  Tensor a{Shape{9}};
  for (std::size_t i = 0; i < 9; ++i) {
    a[i] = 0.1f + 0.1f * static_cast<float>(i);
  }
  const Tensor decoded = scheme->decode(encode(*scheme, a));
  for (std::size_t i = 1; i < 9; ++i) {
    EXPECT_GE(decoded[i], decoded[i - 1] - 1e-4f) << scheme->name();
  }
}

TEST_P(CodingRoundTrip, EncodeDeterministic) {
  const auto scheme = make();
  Tensor a{Shape{16}};
  Rng rng(7);
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<float>(rng.uniform());
  }
  EXPECT_EQ(snn::test::events_of(encode(*scheme, a)),
            snn::test::events_of(encode(*scheme, a)));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodings, CodingRoundTrip,
    ::testing::Values(RoundTripCase{Coding::kRate, 1, 0.02},
                      RoundTripCase{Coding::kPhase, 1, 0.01},
                      RoundTripCase{Coding::kBurst, 1, 0.05},
                      // TTFS-family quantization is one kernel step:
                      // max relative error ~ e^(1/(2*tau)) - 1 with tau = 3.
                      RoundTripCase{Coding::kTtfs, 1, 0.20},
                      RoundTripCase{Coding::kTtas, 3, 0.20},
                      RoundTripCase{Coding::kTtas, 5, 0.20}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return snn::coding_name(info.param.coding) + "_" +
             std::to_string(info.param.burst_duration);
    });

TEST(CodingSpikeCounts, TtfsUsesFewestSpikes) {
  Tensor a{Shape{32}};
  Rng rng(9);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = static_cast<float>(rng.uniform(0.2, 0.9));
  }
  const std::size_t rate_spikes =
      encode(*coding::make_scheme(Coding::kRate), a).size();
  const std::size_t phase_spikes =
      encode(*coding::make_scheme(Coding::kPhase), a).size();
  const std::size_t burst_spikes =
      encode(*coding::make_scheme(Coding::kBurst), a).size();
  const std::size_t ttfs_spikes =
      encode(*coding::make_scheme(Coding::kTtfs), a).size();
  EXPECT_LT(ttfs_spikes, burst_spikes);
  EXPECT_LT(ttfs_spikes, phase_spikes);
  EXPECT_LT(ttfs_spikes, rate_spikes);
  EXPECT_LE(burst_spikes, rate_spikes);  // burst compresses high rates
  EXPECT_EQ(ttfs_spikes, 32u);           // exactly one spike per neuron
}

TEST(CodingSpikeCounts, TtasSpikesScaleWithBurstDuration) {
  Tensor a{Shape{16}};
  for (std::size_t i = 0; i < 16; ++i) {
    a[i] = 0.5f;
  }
  const std::size_t s1 = encode(*core::make_ttas(1), a).size();
  const std::size_t s3 = encode(*core::make_ttas(3), a).size();
  const std::size_t s5 = encode(*core::make_ttas(5), a).size();
  EXPECT_EQ(s1, 16u);
  EXPECT_EQ(s3, 48u);
  EXPECT_EQ(s5, 80u);
}

TEST(CodingNames, MatchPaperLegend) {
  EXPECT_EQ(coding::make_scheme(Coding::kRate)->name(), "rate");
  EXPECT_EQ(coding::make_scheme(Coding::kPhase)->name(), "phase");
  EXPECT_EQ(coding::make_scheme(Coding::kBurst)->name(), "burst");
  EXPECT_EQ(coding::make_scheme(Coding::kTtfs)->name(), "ttfs");
  EXPECT_EQ(core::make_ttas(5)->name(), "ttas(5)");
}

TEST(CodingDefaults, MatchPaperThresholds) {
  EXPECT_FLOAT_EQ(coding::default_params(Coding::kRate).threshold, 0.4f);
  EXPECT_FLOAT_EQ(coding::default_params(Coding::kBurst).threshold, 0.4f);
  EXPECT_FLOAT_EQ(coding::default_params(Coding::kPhase).threshold, 1.2f);
  EXPECT_FLOAT_EQ(coding::default_params(Coding::kTtfs).threshold, 0.8f);
  EXPECT_FLOAT_EQ(coding::default_params(Coding::kTtas).threshold, 0.8f);
}

}  // namespace
}  // namespace tsnn
