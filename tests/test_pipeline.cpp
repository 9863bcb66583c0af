// Tests for the NoiseRobustPipeline public API and activation analysis.
#include <gtest/gtest.h>

#include "coding/registry.h"
#include "common/rng.h"
#include "core/activation_analysis.h"
#include "core/pipeline.h"
#include "core/ttas.h"
#include "noise/noise.h"
#include "snn/topology.h"
#include "spike_test_util.h"

namespace tsnn::core {
namespace {

using snn::Coding;
using snn::test::one_spike;

/// A hand-built two-stage model: identity 4->4 then a 2-class readout that
/// sums the first/last two inputs.
snn::SnnModel tiny_model() {
  snn::SnnModel model(Shape{4});
  Tensor eye{Shape{4, 4}};
  for (std::size_t i = 0; i < 4; ++i) {
    eye(i, i) = 1.0f;
  }
  model.add_stage("hidden", std::make_unique<snn::DenseTopology>(eye));
  Tensor readout{Shape{2, 4}, {1, 1, 0, 0, 0, 0, 1, 1}};
  model.add_stage("readout", std::make_unique<snn::DenseTopology>(readout));
  return model;
}

TEST(Pipeline, ClassifiesTinyProblemCleanly) {
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  Tensor lo{Shape{4}, {0.8f, 0.7f, 0.1f, 0.1f}};  // class 0
  Tensor hi{Shape{4}, {0.1f, 0.1f, 0.9f, 0.6f}};  // class 1
  EXPECT_EQ(pipe.run(lo, nullptr).predicted_class, 0u);
  EXPECT_EQ(pipe.run(hi, nullptr).predicted_class, 1u);
}

TEST(Pipeline, EvaluateAggregates) {
  PipelineConfig cfg;
  cfg.coding = Coding::kTtfs;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  std::vector<Tensor> images{Tensor{Shape{4}, {0.8f, 0.7f, 0.1f, 0.1f}},
                             Tensor{Shape{4}, {0.1f, 0.1f, 0.9f, 0.6f}}};
  std::vector<std::size_t> labels{0, 1};
  const auto r = pipe.evaluate(images, labels, nullptr);
  EXPECT_EQ(r.num_images, 2u);
  EXPECT_EQ(r.num_correct, 2u);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_GT(r.mean_spikes_per_image, 0.0);
}

TEST(Pipeline, DefaultParamsComeFromRegistry) {
  PipelineConfig cfg;
  cfg.coding = Coding::kPhase;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  EXPECT_FLOAT_EQ(pipe.scheme().params().threshold, 1.2f);
}

TEST(Pipeline, TtasBurstDurationHonored) {
  PipelineConfig cfg;
  cfg.coding = Coding::kTtas;
  cfg.params.burst_duration = 7;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  EXPECT_EQ(pipe.scheme().params().burst_duration, 7u);
  EXPECT_EQ(pipe.scheme().name(), "ttas(7)");
}

TEST(Pipeline, DefaultConstructedTtasConfigMatchesRegistryDefaults) {
  // A default-constructed config must not silently demote TTAS to TTFS:
  // params.burst_duration defaults to 1, but with use_default_params the
  // registry's t_a (5) wins. Regression test for the old resolve_params
  // quirk where the default config produced ttas(1).
  PipelineConfig cfg;
  ASSERT_EQ(cfg.coding, Coding::kTtas);
  ASSERT_TRUE(cfg.use_default_params);
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  const auto defaults = coding::default_params(Coding::kTtas);
  EXPECT_EQ(pipe.scheme().params().burst_duration, defaults.burst_duration);
  EXPECT_FLOAT_EQ(pipe.scheme().params().threshold, defaults.threshold);
  EXPECT_EQ(pipe.scheme().name(),
            "ttas(" + std::to_string(defaults.burst_duration) + ")");
}

TEST(Pipeline, DefaultParamsIgnoreNonTtasBurstDuration) {
  // For non-TTAS codings use_default_params means exactly the registry
  // defaults; a stray burst_duration in params must not leak through.
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.params.burst_duration = 9;
  cfg.params.window = 16;  // also ignored
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  const auto defaults = coding::default_params(Coding::kRate);
  EXPECT_EQ(pipe.scheme().params().burst_duration, defaults.burst_duration);
  EXPECT_EQ(pipe.scheme().params().window, defaults.window);
}

TEST(Pipeline, RunIsPureFunctionOfStream) {
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.noise_seed = 11;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  const Tensor img{Shape{4}, {0.8f, 0.7f, 0.1f, 0.1f}};
  const auto noise = noise::make_deletion(0.5);

  // Back-to-back run() calls with the same stream are identical -- run()
  // holds no mutable rng state (the old order-dependence bug).
  const auto a = pipe.run(img, noise.get());
  const auto b = pipe.run(img, noise.get());
  EXPECT_EQ(a.logits, b.logits);
  EXPECT_EQ(a.total_spikes, b.total_spikes);

  // Distinct streams draw independent corruption...
  const auto s1 = pipe.run(img, noise.get(), 1);
  EXPECT_NE(s1.total_spikes, a.total_spikes);

  // ...and interleaving them does not perturb stream 0.
  const auto c = pipe.run(img, noise.get(), 0);
  EXPECT_EQ(c.logits, a.logits);

  // run(stream = i) matches evaluate()'s image-i corruption contract:
  // both derive from Rng::for_stream(noise_seed, i).
  Rng rng = Rng::for_stream(cfg.noise_seed, 0);
  const auto direct = snn::simulate(
      snn::SimRequest{&pipe.model(), &pipe.scheme(), noise.get(), &rng}, img);
  EXPECT_EQ(direct.logits, a.logits);
}

TEST(Pipeline, ExplicitParamsOverrideDefaults) {
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.use_default_params = false;
  cfg.params = coding::default_params(Coding::kRate);
  cfg.params.window = 32;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  EXPECT_EQ(pipe.scheme().params().window, 32u);
}

TEST(Pipeline, WeightScalingAppliedToModelCopy) {
  const snn::SnnModel base = tiny_model();
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.weight_scaling = true;
  cfg.assumed_deletion_p = 0.5;
  NoiseRobustPipeline pipe(base, cfg);
  std::vector<float> u(4, 0.0f);
  pipe.model().stage(0).synapse->propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 2.0f);  // C = 2 applied
  // The caller's model is untouched.
  u.assign(4, 0.0f);
  base.stage(0).synapse->propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 1.0f);
}

TEST(Pipeline, NoiseEvaluationReproducibleAfterReseed) {
  PipelineConfig cfg;
  cfg.coding = Coding::kRate;
  cfg.noise_seed = 5;
  NoiseRobustPipeline pipe(tiny_model(), cfg);
  std::vector<Tensor> images{Tensor{Shape{4}, {0.8f, 0.7f, 0.1f, 0.1f}},
                             Tensor{Shape{4}, {0.1f, 0.1f, 0.9f, 0.6f}}};
  std::vector<std::size_t> labels{0, 1};
  const auto noise = noise::make_deletion(0.5);
  const auto r1 = pipe.evaluate(images, labels, noise.get());
  pipe.reseed(5);
  const auto r2 = pipe.evaluate(images, labels, noise.get());
  EXPECT_DOUBLE_EQ(r1.mean_spikes_per_image, r2.mean_spikes_per_image);
  EXPECT_EQ(r1.num_correct, r2.num_correct);
}

TEST(ActivationAnalysis, TtfsIsAllOrNone) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.5;
  cfg.trials = 1500;
  const auto dist =
      analyze_activation(*coding::make_scheme(Coding::kTtfs), cfg);
  EXPECT_NEAR(dist.p_zero, 0.5, 0.05);
  EXPECT_NEAR(dist.p_full, 0.5, 0.05);
  EXPECT_NEAR(dist.p_zero + dist.p_full, 1.0, 0.01);
}

TEST(ActivationAnalysis, RateIsConcentratedAroundScaledMean) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.5;
  cfg.trials = 1500;
  const auto dist =
      analyze_activation(*coding::make_scheme(Coding::kRate), cfg);
  EXPECT_NEAR(dist.mean, 0.3, 0.02);   // (1-p) * A
  EXPECT_LT(dist.p_zero, 0.01);        // essentially never fully lost
  EXPECT_LT(dist.p_full, 0.05);        // and essentially never intact
}

TEST(ActivationAnalysis, WeightScalingRestoresMean) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.4;
  cfg.weight_scaling = true;
  cfg.trials = 1500;
  const auto dist =
      analyze_activation(*coding::make_scheme(Coding::kRate), cfg);
  EXPECT_NEAR(dist.mean, 0.6, 0.03);
}

TEST(ActivationAnalysis, TtasSplitsMassTowardEnds) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.5;
  cfg.trials = 1500;
  const auto ttas = analyze_activation(*make_ttas(5), cfg);
  const auto ttfs = analyze_activation(*coding::make_scheme(Coding::kTtfs), cfg);
  const auto rate = analyze_activation(*coding::make_scheme(Coding::kRate), cfg);
  // TTAS keeps more near-full deliveries than rate but loses everything far
  // less often than TTFS (the Fig. 5-B "both ends" distribution).
  EXPECT_GT(ttas.p_full, rate.p_full);
  EXPECT_LT(ttas.p_zero, ttfs.p_zero / 4);
}

TEST(ActivationAnalysis, JitterOnlyMode) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.5f;
  cfg.deletion_p = 0.0;
  cfg.jitter_sigma = 1.0;
  cfg.trials = 500;
  const auto dist =
      analyze_activation(*coding::make_scheme(Coding::kTtfs), cfg);
  EXPECT_GT(dist.stddev, 0.0);
  EXPECT_LT(dist.p_zero, 0.05);  // jitter shifts, never deletes
}

TEST(ActivationAnalysis, PinnedExactlyPerCoding) {
  // Exact fixed-seed statistics under deletion 0.5 + jitter 1.0, captured
  // from the original per-step bucket implementation: encode, corrupt and
  // decode on EventBuffers must not move a single bit.
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.5;
  cfg.jitter_sigma = 1.0;
  cfg.trials = 500;
  struct Pin {
    snn::CodingSchemePtr scheme;
    double mean, stddev, p_zero, p_full;
  };
  Pin pins[] = {
      {coding::make_scheme(Coding::kRate), 0.29296875, 0.048307833585858703,
       0.0, 0.0},
      {coding::make_scheme(Coding::kTtfs), 0.26567457103729247,
       0.3051191778221512, 0.51800000000000002, 0.184},
      {make_ttas(5), 0.26968067402020096, 0.14956393081802849,
       0.028000000000000001, 0.10000000000000001},
  };
  for (const Pin& pin : pins) {
    const auto dist = analyze_activation(*pin.scheme, cfg);
    EXPECT_EQ(dist.mean, pin.mean) << pin.scheme->name();
    EXPECT_EQ(dist.stddev, pin.stddev) << pin.scheme->name();
    EXPECT_EQ(dist.p_zero, pin.p_zero) << pin.scheme->name();
    EXPECT_EQ(dist.p_full, pin.p_full) << pin.scheme->name();
  }
}

TEST(ActivationAnalysis, RejectsBadConfig) {
  ActivationAnalysisConfig cfg;
  cfg.activation = 0.0f;
  EXPECT_THROW(analyze_activation(*coding::make_scheme(Coding::kRate), cfg),
               InvalidArgument);
}

}  // namespace
}  // namespace tsnn::core
