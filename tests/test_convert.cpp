// Tests for DNN-to-SNN conversion: activation stats, normalization
// bookkeeping, fidelity of the converted model, and threshold search.
#include <gtest/gtest.h>

#include "coding/registry.h"
#include "common/rng.h"
#include "convert/converter.h"
#include "convert/normalizer.h"
#include "convert/threshold_search.h"
#include "dnn/dense.h"
#include "dnn/trainer.h"
#include "dnn/vgg.h"
#include "snn/simulator.h"
#include "spike_test_util.h"
#include "tensor/tensor_ops.h"

namespace tsnn::convert {
namespace {

/// Trains a small conv net on an easy 3-class pattern task; returns the
/// network plus train data (reused as calibration set).
struct TrainedFixture {
  dnn::Network net;
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;

  TrainedFixture() : net(Shape{1, 8, 8}) {
    Rng rng(55);
    for (std::size_t i = 0; i < 240; ++i) {
      Tensor x{Shape{1, 8, 8}};
      const std::size_t cls = rng.uniform_index(3);
      // Class = which horizontal band is bright.
      for (std::size_t y = 0; y < 8; ++y) {
        for (std::size_t xx = 0; xx < 8; ++xx) {
          const bool in_band = y / 3 == cls || (cls == 2 && y >= 6);
          const double base = in_band ? 0.7 : 0.1;
          x(0, y, xx) = static_cast<float>(
              std::clamp(base + rng.normal(0.0, 0.05), 0.0, 1.0));
        }
      }
      images.push_back(std::move(x));
      labels.push_back(cls);
    }
    dnn::VggConfig cfg;
    cfg.in_channels = 1;
    cfg.image_size = 8;
    cfg.num_blocks = 1;
    cfg.base_width = 6;
    cfg.dense_width = 16;
    cfg.num_classes = 3;
    cfg.conv_dropout = 0.1;
    cfg.dense_dropout = 0.2;
    net = dnn::vgg_mini(cfg);
    dnn::TrainConfig tc;
    tc.epochs = 8;
    tc.sgd.lr = 0.05;
    dnn::train(net, images, labels, tc);
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

TEST(ActivationStats, CollectsPerLayer) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 20);
  const auto stats = collect_activation_stats(f.net, calib, 99.0);
  ASSERT_EQ(stats.size(), f.net.num_layers());
  for (const auto& s : stats) {
    EXPECT_GE(s.max_value, s.percentile_value);
    EXPECT_GE(s.percentile_value, 0.0);
    EXPECT_FALSE(s.layer_name.empty());
  }
}

TEST(ActivationStats, RejectsEmptyCalibration) {
  auto& f = fixture();
  EXPECT_THROW(collect_activation_stats(f.net, {}, 99.0), InvalidArgument);
  const std::vector<Tensor> one(f.images.begin(), f.images.begin() + 1);
  EXPECT_THROW(collect_activation_stats(f.net, one, 0.0), InvalidArgument);
}

TEST(Normalizer, ScalesByRatio) {
  Tensor w{Shape{1, 2}, {2.0f, -4.0f}};
  const Tensor out = normalize_weight(w, 3.0, 1.5);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], -8.0f);
  EXPECT_THROW(normalize_weight(w, 0.0, 1.0), InvalidArgument);
}

TEST(Converter, StageStructureMatchesNetwork) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 30);
  const Conversion conv = convert(f.net, calib);
  // VGG-mini(1 block): conv, conv, pool, fc1, fc2 = 5 synapse stages.
  EXPECT_EQ(conv.model.num_stages(), 5u);
  EXPECT_EQ(conv.model.output_size(), 3u);
  ASSERT_EQ(conv.scales.size(), 5u);
  // Scales chain: lambda_in of each stage equals lambda_out of the previous.
  for (std::size_t i = 1; i < conv.scales.size(); ++i) {
    EXPECT_DOUBLE_EQ(conv.scales[i].lambda_in, conv.scales[i - 1].lambda_out);
  }
  // Input scale is 1 (pixels); readout stage is unnormalized.
  EXPECT_DOUBLE_EQ(conv.scales.front().lambda_in, 1.0);
  EXPECT_DOUBLE_EQ(conv.scales.back().lambda_out, 1.0);
}

TEST(Converter, PoolStagePreservesScale) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 30);
  const Conversion conv = convert(f.net, calib);
  bool found_pool = false;
  for (const StageScale& s : conv.scales) {
    if (s.stage_name.find("pool") != std::string::npos) {
      EXPECT_DOUBLE_EQ(s.lambda_in, s.lambda_out);
      found_pool = true;
    }
  }
  EXPECT_TRUE(found_pool);
}

TEST(Converter, NormalizedActivationsAreBounded) {
  // Transport the calibration activations through the converted synapses
  // densely (no spiking) and verify normalized ReLU activations stay ~<= 1.
  // apply_dense() writes each stage's accumulator layout; the next stage
  // reads canonical input.
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 30);
  const Conversion conv = convert(f.net, calib);
  for (const Tensor& image : calib) {
    std::vector<float> act(image.data(), image.data() + image.numel());
    for (std::size_t s = 0; s + 1 < conv.model.num_stages(); ++s) {
      const auto& syn = *conv.model.stage(s).synapse;
      std::vector<float> accum(syn.out_size(), 0.0f);
      syn.apply_dense(act.data(), accum.data());
      std::vector<float> next = snn::test::to_canonical(syn, accum.data());
      for (float& v : next) {
        v = std::max(v, 0.0f);  // ReLU
        EXPECT_LE(v, 1.35f);    // normalized scale (p99.9 allows a small tail)
      }
      act = std::move(next);
    }
  }
}

TEST(Converter, SnnMatchesDnnPredictionsOnCleanInput) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 40);
  const Conversion conv = convert(f.net, calib);
  const auto scheme = coding::make_scheme(snn::Coding::kRate);

  std::size_t agree = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t dnn_pred =
        ops::argmax(f.net.forward(f.images[i], /*training=*/false));
    const snn::SimResult r =
        snn::simulate(snn::SimRequest{&conv.model, scheme.get()}, f.images[i]);
    agree += dnn_pred == r.predicted_class ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(agree) / n, 0.9);
}

TEST(Converter, RejectsBiasedLayers) {
  dnn::Network net(Shape{4});
  net.add(std::make_unique<dnn::Dense>("fc", 4, 2, /*use_bias=*/true));
  std::vector<Tensor> calib{Tensor{Shape{4}, 0.5f}};
  EXPECT_THROW(convert(net, calib), InvalidArgument);
}

TEST(ThresholdSearch, PicksBestCandidate) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 30);
  const Conversion conv = convert(f.net, calib);
  const std::vector<Tensor> val(f.images.begin() + 30, f.images.begin() + 55);
  const std::vector<std::size_t> val_labels(f.labels.begin() + 30,
                                            f.labels.begin() + 55);
  const auto result = search_threshold(
      conv.model, snn::Coding::kRate, coding::default_params(snn::Coding::kRate),
      {0.2f, 0.4f, 0.8f}, val, val_labels);
  ASSERT_EQ(result.curve.size(), 3u);
  for (const auto& pt : result.curve) {
    EXPECT_LE(pt.accuracy, result.best_accuracy);
  }
  // The winner is one of the candidates.
  EXPECT_TRUE(result.best_threshold == 0.2f || result.best_threshold == 0.4f ||
              result.best_threshold == 0.8f);
}

TEST(ThresholdSearch, RejectsEmptyInput) {
  auto& f = fixture();
  const std::vector<Tensor> calib(f.images.begin(), f.images.begin() + 10);
  const Conversion conv = convert(f.net, calib);
  EXPECT_THROW(search_threshold(conv.model, snn::Coding::kRate,
                                coding::default_params(snn::Coding::kRate), {},
                                calib, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace tsnn::convert
