// Scheme-specific behavior: firing rules, layer transport, and the
// coding-specific mechanics the paper's analysis relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "coding/burst.h"
#include "coding/phase.h"
#include "coding/rate.h"
#include "coding/registry.h"
#include "coding/ttfs.h"
#include "common/error.h"
#include "common/rng.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "snn/topology.h"
#include "spike_test_util.h"

namespace tsnn::coding {
namespace {

using snn::Coding;
using snn::CodingParams;
using snn::EventBuffer;
using snn::LayerRole;
using snn::test::encode;
using snn::test::events_of;
using snn::test::run_layer;

/// Identity dense synapse of size n.
snn::DenseTopology identity(std::size_t n) {
  Tensor w{Shape{n, n}};
  for (std::size_t i = 0; i < n; ++i) {
    w(i, i) = 1.0f;
  }
  return snn::DenseTopology{w};
}

Tensor random_activations(std::size_t n, std::uint64_t seed, double lo = 0.05,
                          double hi = 0.7) {
  Tensor a{Shape{n}};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return a;
}

/// Transport property: encode -> hidden layer through identity weights ->
/// readout through identity weights must approximately reproduce the input
/// activations for every coding scheme.
void check_identity_transport(const snn::CodingScheme& scheme, double tol) {
  const std::size_t n = 24;
  const Tensor a = random_activations(n, 31);
  const auto syn = identity(n);
  const EventBuffer hidden =
      run_layer(scheme, encode(scheme, a), syn, LayerRole::kFirstHidden);
  const Tensor out =
      snn::test::readout(scheme, hidden, syn, LayerRole::kHidden);
  // The readout accumulates total delivered charge; normalize to activation
  // units using a reference encoding of value 1... instead compare ratios:
  // transport of 2x activation should read out ~2x. Check linear agreement
  // against the input through a least-squares gain.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += out[i] * a[i];
    den += a[i] * a[i];
  }
  const double gain = num / den;
  ASSERT_GT(gain, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out[i] / gain, a[i], tol) << scheme.name() << " neuron " << i;
  }
}

TEST(RateScheme, EncodeCountMatchesActivation) {
  const auto scheme = make_scheme(Coding::kRate);
  Tensor a{Shape{3}, {0.25f, 0.5f, 1.0f}};
  const std::vector<std::size_t> counts =
      snn::test::spike_counts(encode(*scheme, a));
  const std::size_t window = scheme->params().window;
  EXPECT_NEAR(static_cast<double>(counts[0]), 0.25 * window, 1.0);
  EXPECT_NEAR(static_cast<double>(counts[1]), 0.5 * window, 1.0);
  EXPECT_EQ(counts[2], window);  // rate saturates at one spike per step
}

TEST(RateScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kRate), 0.05);
}

TEST(RateScheme, NegativePotentialStaysSilent) {
  const auto scheme = make_scheme(Coding::kRate);
  Tensor w{Shape{1, 1}, {-1.0f}};  // inhibitory synapse
  snn::DenseTopology syn{w};
  Tensor a{Shape{1}, {0.8f}};
  const EventBuffer out =
      run_layer(*scheme, encode(*scheme, a), syn, LayerRole::kFirstHidden);
  EXPECT_EQ(out.size(), 0u);  // ReLU behavior
}

TEST(PhaseScheme, WeightsFollowBinaryLadder) {
  const auto scheme = std::make_unique<PhaseScheme>(default_params(Coding::kPhase));
  EXPECT_FLOAT_EQ(scheme->phase_weight(0), 0.5f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(1), 0.25f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(7), 1.0f / 256.0f);
  EXPECT_FLOAT_EQ(scheme->phase_weight(8), 0.5f);  // periodic
}

TEST(PhaseScheme, EncodesBinaryExpansion) {
  const auto scheme = std::make_unique<PhaseScheme>(default_params(Coding::kPhase));
  Tensor a{Shape{1}, {0.75f}};  // binary 0.11 -> spikes at phases 0 and 1
  const EventBuffer r = encode(*scheme, a);
  EXPECT_EQ(r.step_count(0), 1u);
  EXPECT_EQ(r.step_count(1), 1u);
  EXPECT_EQ(r.step_count(2), 0u);
}

TEST(PhaseScheme, RejectsBadWindow) {
  CodingParams p = default_params(Coding::kPhase);
  p.window = 63;  // not a multiple of the period
  EXPECT_THROW(PhaseScheme{p}, InvalidArgument);
}

TEST(PhaseScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kPhase), 0.05);
}

TEST(BurstScheme, GainLadderAndCap) {
  const auto scheme = std::make_unique<BurstScheme>(default_params(Coding::kBurst));
  EXPECT_FLOAT_EQ(scheme->burst_gain(0), 1.0f);
  EXPECT_FLOAT_EQ(scheme->burst_gain(1), 2.0f);
  EXPECT_FLOAT_EQ(scheme->burst_gain(4), 16.0f);
  EXPECT_FLOAT_EQ(scheme->burst_gain(9), 16.0f);  // capped
}

TEST(BurstScheme, CapIsBoundedBySevenForTheKernelTable) {
  CodingParams p = default_params(Coding::kBurst);
  p.burst_cap = BurstScheme::kMaxBurstCap;
  const BurstScheme widest(p);
  EXPECT_FLOAT_EQ(widest.burst_gain(7), 128.0f);
  EXPECT_FLOAT_EQ(widest.burst_gain(100), 128.0f);
  p.burst_cap = BurstScheme::kMaxBurstCap + 1;
  try {
    BurstScheme{p};
    FAIL() << "burst_cap 8 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("limit of 7"), std::string::npos)
        << e.what();
  }
}

/// Random {rows, cols} weights in [lo, hi).
Tensor random_weights(const Shape& shape, std::uint64_t seed, float lo,
                      float hi) {
  Tensor w{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return w;
}

/// Bitwise logit comparison (EXPECT_EQ on floats would let -0 == +0 pass).
void expect_same_bits(const Tensor& want, const Tensor& got,
                      const std::string& what) {
  ASSERT_EQ(want.numel(), got.numel()) << what;
  for (std::size_t j = 0; j < want.numel(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want[j]),
              std::bit_cast<std::uint32_t>(got[j]))
        << what << " logit " << j;
  }
}

// BurstScheme (gain table + burst_fire kernel) against the per-neuron
// std::pow loops it replaced, on every runnable dispatch table: the
// encoder, then a dense layer (identity accumulator map) and a conv layer
// (transposed map) fed clean, deleted and jittered trains, and the readout
// behind each. Three gain/cap settings put counters below, at and above
// cap.
TEST(BurstScheme, MatchesPerNeuronPowReference) {
  using snn::test::reference_burst_encode;
  using snn::test::reference_burst_layer;
  using snn::test::reference_burst_readout;
  CodingParams base = default_params(Coding::kBurst);
  CodingParams steep = base;
  steep.burst_gain = 1.5f;
  steep.burst_cap = 1;
  CodingParams wide = base;
  wide.burst_gain = 1.25f;
  wide.burst_cap = 7;

  const Tensor image = random_activations(3 * 6 * 6, 41, 0.0, 1.0);
  // Hidden weights skewed positive so potentials outgrow the top quantum.
  const snn::ConvTopology conv(
      random_weights(Shape{5, 3, 3, 3}, 42, -0.4f, 1.2f), 6, 6, 1, 1);
  const snn::DenseTopology dense(
      random_weights(Shape{29, conv.out_size()}, 43, -0.05f, 0.12f));
  const snn::DenseTopology head(
      random_weights(Shape{10, 29}, 44, -0.5f, 0.5f));
  const auto deletion = noise::make_deletion(0.3);
  const auto jitter = noise::make_jitter(1.5);

  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    for (const CodingParams& p : {base, steep, wide}) {
      const BurstScheme scheme(p);
      const std::string at = std::string(table->isa) + " g=" +
                             std::to_string(p.burst_gain) +
                             " cap=" + std::to_string(p.burst_cap);
      const EventBuffer clean = encode(scheme, image);
      ASSERT_EQ(events_of(reference_burst_encode(p, image)), events_of(clean))
          << at;
      ASSERT_GT(clean.size(), 0u) << at;

      Rng rng(7);
      const EventBuffer inputs[] = {
          clean, snn::test::corrupted(*deletion, clean, rng),
          snn::test::corrupted(*jitter, clean, rng)};
      for (const EventBuffer& in : inputs) {
        const EventBuffer c =
            run_layer(scheme, in, conv, LayerRole::kFirstHidden);
        ASSERT_EQ(events_of(reference_burst_layer(p, in, conv,
                                                  LayerRole::kFirstHidden)),
                  events_of(c))
            << at << " conv";
        ASSERT_GT(c.size(), 0u) << at;
        const EventBuffer d = run_layer(scheme, c, dense, LayerRole::kHidden);
        ASSERT_EQ(
            events_of(reference_burst_layer(p, c, dense, LayerRole::kHidden)),
            events_of(d))
            << at << " dense";
        ASSERT_GT(d.size(), 0u) << at;
        expect_same_bits(
            reference_burst_readout(p, d, head, LayerRole::kHidden),
            snn::test::readout(scheme, d, head, LayerRole::kHidden),
            at + " readout");
        expect_same_bits(
            reference_burst_readout(p, c, dense, LayerRole::kHidden),
            snn::test::readout(scheme, c, dense, LayerRole::kHidden),
            at + " readout of the conv train");
      }
    }
  }
}

/// Weights drawn as whole quarters in [lo/4, hi/4], one in five exactly
/// 1.0: with a dyadic theta every potential is an exact dyadic sum, so
/// neurons land exactly on their threshold (the >= edge) again and again.
Tensor dyadic_weights(const Shape& shape, std::uint64_t seed, int lo, int hi) {
  Tensor w{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const auto q = lo + static_cast<int>(rng.uniform_index(
                            static_cast<std::size_t>(hi - lo + 1)));
    w[i] = rng.uniform_index(5) == 0 ? 1.0f : 0.25f * static_cast<float>(q);
  }
  return w;
}

// Conv widths of the fire-order grid: 1 (a transposed layout that is the
// identity), odd and even widths below and at the 8-lane vector, and the
// full zoo's 12 and 24, which are not powers of two.
constexpr std::size_t kFireChannels[] = {1, 3, 8, 12, 16, 24};

/// Drives `scheme` against its per-neuron reference on every runnable
/// dispatch table. Each kFireChannels width gets a conv layer on a 2 x 5 x 7
/// input (3x3, pad 1: 35 slots per channel, not a multiple of 8) and a
/// dense layer behind it, fed clean, deleted (p = 0.3) and jittered
/// (sigma = 1.5) trains, plus readouts through a dense head and through the
/// conv itself (a transposed readout). `ref_layer(in, syn, role)` is the
/// reference layer and `ref_magnitude(role)` maps a step to the reference
/// readout's magnitude.
template <typename RefLayer, typename RefMagnitude>
void check_fire_order(const snn::CodingScheme& scheme,
                      const RefLayer& ref_layer,
                      const RefMagnitude& ref_magnitude) {
  using snn::test::reference_uniform_readout;
  const Tensor image = random_activations(2 * 5 * 7, 51, 0.0, 1.0);
  const auto deletion = noise::make_deletion(0.3);
  const auto jitter = noise::make_jitter(1.5);
  const snn::DenseTopology head(random_weights(Shape{10, 29}, 44, -0.5f, 0.5f));
  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    const EventBuffer clean = encode(scheme, image);
    Rng rng(9);
    const EventBuffer inputs[] = {
        clean, snn::test::corrupted(*deletion, clean, rng),
        snn::test::corrupted(*jitter, clean, rng)};
    const char* const input_names[] = {"clean", "deleted", "jittered"};
    for (const std::size_t oc : kFireChannels) {
      const snn::ConvTopology conv(
          dyadic_weights(Shape{oc, 2, 3, 3}, 60 + oc, -2, 4), 5, 7, 1, 1);
      const snn::DenseTopology dense(
          dyadic_weights(Shape{29, conv.out_size()}, 70 + oc, -1, 1));
      for (std::size_t i = 0; i < 3; ++i) {
        const EventBuffer& in = inputs[i];
        const std::string at = scheme.name() + " " + table->isa + " oc=" +
                               std::to_string(oc) + " " + input_names[i] +
                               " theta=" +
                               std::to_string(scheme.params().threshold);
        const EventBuffer c =
            run_layer(scheme, in, conv, LayerRole::kFirstHidden);
        ASSERT_EQ(events_of(ref_layer(in, conv, LayerRole::kFirstHidden)),
                  events_of(c))
            << at << " conv";
        ASSERT_GT(c.size(), 0u) << at;
        const EventBuffer d = run_layer(scheme, c, dense, LayerRole::kHidden);
        ASSERT_EQ(events_of(ref_layer(c, dense, LayerRole::kHidden)),
                  events_of(d))
            << at << " dense";
        expect_same_bits(
            reference_uniform_readout(d, head,
                                      ref_magnitude(LayerRole::kHidden)),
            snn::test::readout(scheme, d, head, LayerRole::kHidden),
            at + " readout");
        expect_same_bits(
            reference_uniform_readout(in, conv,
                                      ref_magnitude(LayerRole::kFirstHidden)),
            snn::test::readout(scheme, in, conv, LayerRole::kFirstHidden),
            at + " conv readout");
      }
    }
  }
}

// RateScheme's slot-order fire scan plus the canonical reorder against the
// per-neuron loop, at the registry theta and at a dyadic theta where exact
// ties are common.
TEST(RateScheme, MatchesPerNeuronReference) {
  for (const float theta : {default_params(Coding::kRate).threshold, 0.5f}) {
    CodingParams p = default_params(Coding::kRate);
    p.threshold = theta;
    const RateScheme scheme(p);
    check_fire_order(
        scheme,
        [&p](const EventBuffer& in, const snn::SynapseTopology& syn,
             LayerRole) {
          return snn::test::reference_rate_layer(p, in, syn);
        },
        [&p](LayerRole) { return [&p](std::size_t) { return p.threshold; }; });
  }
}

TEST(PhaseScheme, MatchesPerNeuronReference) {
  for (const float theta : {default_params(Coding::kPhase).threshold, 0.5f}) {
    CodingParams p = default_params(Coding::kPhase);
    p.threshold = theta;
    const PhaseScheme scheme(p);
    check_fire_order(
        scheme,
        [&p](const EventBuffer& in, const snn::SynapseTopology& syn,
             LayerRole role) {
          return snn::test::reference_phase_layer(p, in, syn, role);
        },
        [&p](LayerRole role) {
          const float base_in =
              role == LayerRole::kFirstHidden ? 1.0f : p.threshold;
          return [&p, base_in](std::size_t t) {
            return base_in * snn::test::reference_phase_weight(p, t);
          };
        });
  }
}

// TTFS's floor-collect scan in slot order, then the canonical reorder and
// the per-survivor read at slot_of(j), for TTFS and a 3-spike TTAS burst.
TEST(TtfsScheme, MatchesPerNeuronReference) {
  for (const std::size_t duration : {1ul, 3ul}) {
    CodingParams p = default_params(Coding::kTtfs);
    p.burst_duration = duration;
    const TtfsScheme scheme(p);
    check_fire_order(
        scheme,
        [&p](const EventBuffer& in, const snn::SynapseTopology& syn,
             LayerRole role) {
          return snn::test::reference_ttfs_layer(p, in, syn, role);
        },
        [&p](LayerRole role) {
          return [&p, role](std::size_t t) {
            return snn::test::reference_ttfs_magnitude(p, role, t);
          };
        });
  }
}

// Exact ties at the TTFS floor: at theta = 1, a single unit-weight arrival
// at the last input step leaves u == 1 * exp(-(T-1)/tau) == the floor
// exactly, so those neurons must fire (>=), in canonical order, on every
// table; earlier arrivals sit above the floor.
TEST(TtfsScheme, FloorTiesFireInCanonicalOrder) {
  CodingParams p = default_params(Coding::kTtfs);
  p.threshold = 1.0f;
  const TtfsScheme scheme(p);
  const std::size_t oc = 3;
  Tensor w{Shape{oc, 1, 1, 1}};
  for (std::size_t i = 0; i < oc; ++i) {
    w[i] = 1.0f;
  }
  const snn::ConvTopology conv(w, 5, 7, 1, 0);
  std::vector<std::pair<std::int32_t, std::uint32_t>> spikes;
  const auto last = static_cast<std::int32_t>(p.window - 1);
  for (std::uint32_t j = 0; j < 35; j += 2) {
    spikes.emplace_back(j % 4 == 0 ? last : static_cast<std::int32_t>(j), j);
  }
  const EventBuffer in = snn::test::make_train(35, p.window, spikes);
  const EventBuffer want = snn::test::reference_ttfs_layer(
      p, in, conv, LayerRole::kFirstHidden);
  // Every channel fires once per input spike, ties included.
  ASSERT_EQ(want.size(), oc * spikes.size());
  for (const simd::KernelDispatch* table : simd::runnable_tables()) {
    const simd::ScopedKernelOverride pin(*table);
    EXPECT_EQ(events_of(want),
              events_of(run_layer(scheme, in, conv, LayerRole::kFirstHidden)))
        << table->isa;
  }
}

TEST(BurstScheme, HighActivationUsesFewerSpikesThanRate) {
  Tensor a{Shape{8}};
  for (std::size_t i = 0; i < 8; ++i) {
    a[i] = 0.9f;
  }
  const std::size_t burst = encode(*make_scheme(Coding::kBurst), a).size();
  const std::size_t rate = encode(*make_scheme(Coding::kRate), a).size();
  EXPECT_LT(burst, rate);
}

TEST(BurstScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kBurst), 0.08);
}

TEST(TtfsScheme, EncodeTimeIsLogarithmic) {
  const auto scheme = std::make_unique<TtfsScheme>(default_params(Coding::kTtfs));
  const float tau = scheme->params().tau;
  EXPECT_EQ(scheme->encode_time(1.0f), 0);
  // a = e^{-1} should land at t = tau.
  EXPECT_EQ(scheme->encode_time(std::exp(-1.0f)), std::lround(tau));
  // Below the representable floor: no spike.
  EXPECT_EQ(scheme->encode_time(scheme->min_activation() * 0.5f), -1);
  // Above 1 saturates at slot 0.
  EXPECT_EQ(scheme->encode_time(1.5f), 0);
}

TEST(TtfsScheme, OneSpikePerActiveNeuron) {
  const auto scheme = make_scheme(Coding::kTtfs);
  const Tensor a = random_activations(16, 5);
  const std::vector<std::size_t> counts =
      snn::test::spike_counts(encode(*scheme, a));
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(counts[i], 1u);
  }
}

TEST(TtfsScheme, IdentityTransport) {
  check_identity_transport(*make_scheme(Coding::kTtfs), 0.15);
}

TEST(TtfsScheme, LayerEmitsEarlierForLargerPotential) {
  const auto scheme = make_scheme(Coding::kTtfs);
  const auto syn = identity(2);
  Tensor a{Shape{2}, {0.9f, 0.2f}};
  const std::vector<std::int32_t> first = snn::test::first_spike_times(
      run_layer(*scheme, encode(*scheme, a), syn, LayerRole::kFirstHidden));
  const std::int32_t t_big = first[0];
  const std::int32_t t_small = first[1];
  ASSERT_GE(t_big, 0);
  ASSERT_GE(t_small, 0);
  EXPECT_LT(t_big, t_small);
}

TEST(TtfsScheme, NegativePotentialSilent) {
  const auto scheme = make_scheme(Coding::kTtfs);
  Tensor w{Shape{1, 1}, {-0.5f}};
  snn::DenseTopology syn{w};
  Tensor a{Shape{1}, {0.9f}};
  const EventBuffer out =
      run_layer(*scheme, encode(*scheme, a), syn, LayerRole::kFirstHidden);
  EXPECT_EQ(out.size(), 0u);
}

TEST(TtfsScheme, RasterWindowExtendsWithBurst) {
  CodingParams p = default_params(Coding::kTtas);
  p.burst_duration = 5;
  const TtfsScheme scheme(p);
  EXPECT_EQ(scheme.raster_window(), p.window + 4);
}

TEST(TtfsScheme, KernelSumScaleNormalizesBurst) {
  CodingParams p = default_params(Coding::kTtas);
  p.burst_duration = 4;
  const TtfsScheme scheme(p);
  double z_hat = 0.0;
  for (int j = 0; j < 4; ++j) {
    z_hat += std::exp(-j / p.tau);
  }
  EXPECT_NEAR(scheme.kernel_sum_scale(), 1.0 / z_hat, 1e-6);
  // Plain TTFS has no burst normalization.
  const TtfsScheme plain(default_params(Coding::kTtfs));
  EXPECT_FLOAT_EQ(plain.kernel_sum_scale(), 1.0f);
}

TEST(Registry, BaselineCodingListMatchesPaperFigures) {
  const auto& codings = baseline_codings();
  ASSERT_EQ(codings.size(), 4u);
  EXPECT_EQ(codings[0], Coding::kRate);
  EXPECT_EQ(codings[3], Coding::kTtfs);
}

TEST(Registry, MakeSchemeCoversAllCodings) {
  for (const Coding c : {Coding::kRate, Coding::kPhase, Coding::kBurst,
                         Coding::kTtfs, Coding::kTtas}) {
    EXPECT_NE(make_scheme(c), nullptr);
  }
}

}  // namespace
}  // namespace tsnn::coding
