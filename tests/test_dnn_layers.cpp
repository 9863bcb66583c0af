// Forward-pass correctness tests for every DNN layer.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>

#include "common/rng.h"
#include "dnn/activations.h"
#include "dnn/avgpool.h"
#include "dnn/conv2d.h"
#include "dnn/dense.h"
#include "dnn/dropout.h"
#include "dnn/flatten.h"
#include "dnn/loss.h"
#include "dnn/network.h"
#include "dnn/vgg.h"
#include "tensor/tensor_ops.h"

namespace tsnn::dnn {
namespace {

TEST(Dense, ForwardMatchesMatvec) {
  Dense layer("fc", 3, 2, /*use_bias=*/true);
  layer.weight().value = Tensor{Shape{2, 3}, {1, 2, 3, 4, 5, 6}};
  layer.bias().value = Tensor{Shape{2}, {0.5f, -0.5f}};
  Tensor x{Shape{3}, {1, 0, -1}};
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -2.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], -2.0f - 0.5f);
}

TEST(Dense, NoBiasVariant) {
  Dense layer("fc", 2, 1, /*use_bias=*/false);
  layer.weight().value = Tensor{Shape{1, 2}, {2, 3}};
  Tensor x{Shape{2}, {1, 1}};
  EXPECT_FLOAT_EQ(layer.forward(x, false)[0], 5.0f);
  EXPECT_EQ(layer.params().size(), 1u);
}

TEST(Dense, RejectsWrongInputShape) {
  Dense layer("fc", 3, 2);
  Tensor bad{Shape{4}};
  EXPECT_THROW(layer.forward(bad, false), ShapeError);
}

TEST(Dense, OutputShape) {
  Dense layer("fc", 3, 5);
  EXPECT_EQ(layer.output_shape(Shape{3}), Shape{5});
  EXPECT_THROW(layer.output_shape(Shape{4}), ShapeError);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 1, .pad = 1, .use_bias = false};
  Conv2d conv("c", spec);
  conv.weight().value.fill(0.0f);
  conv.weight().value(0, 0, 1, 1) = 1.0f;  // center tap
  Tensor x{Shape{1, 4, 4}};
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i);
  }
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(Conv2d, SumKernelComputesNeighborhood) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 1, .pad = 1, .use_bias = false};
  Conv2d conv("c", spec);
  conv.weight().value.fill(1.0f);
  Tensor x{Shape{1, 3, 3}, std::vector<float>(9, 1.0f)};
  const Tensor y = conv.forward(x, false);
  // Center sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y(0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 1), 6.0f);
}

TEST(Conv2d, MultiChannelAccumulates) {
  Conv2dSpec spec{.in_channels = 2, .out_channels = 1, .kernel = 1,
                  .stride = 1, .pad = 0, .use_bias = false};
  Conv2d conv("c", spec);
  conv.weight().value(0, 0, 0, 0) = 2.0f;
  conv.weight().value(0, 1, 0, 0) = 3.0f;
  Tensor x{Shape{2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2}};
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y[i], 2.0f + 6.0f);
  }
}

TEST(Conv2d, StrideTwoHalvesExtent) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 2, .pad = 1, .use_bias = false};
  Conv2d conv("c", spec);
  EXPECT_EQ(conv.output_shape(Shape{1, 8, 8}), (Shape{1, 4, 4}));
}

TEST(Conv2d, BiasAdds) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 1,
                  .stride = 1, .pad = 0, .use_bias = true};
  Conv2d conv("c", spec);
  conv.weight().value(0, 0, 0, 0) = 0.0f;
  conv.bias().value[0] = 1.25f;
  Tensor x{Shape{1, 2, 2}};
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.25f);
  EXPECT_EQ(conv.params().size(), 2u);
}

TEST(AvgPool, AveragesBlocks) {
  AvgPool pool("p", 2);
  Tensor x{Shape{1, 2, 2}, {1, 2, 3, 4}};
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool, PerChannelIndependence) {
  AvgPool pool("p", 2);
  Tensor x{Shape{2, 2, 2}, {1, 1, 1, 1, 3, 3, 3, 3}};
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y(1, 0, 0), 3.0f);
}

TEST(AvgPool, RejectsIndivisibleExtent) {
  AvgPool pool("p", 2);
  Tensor x{Shape{1, 3, 3}};
  EXPECT_THROW(pool.forward(x, false), ShapeError);
}

TEST(Relu, ClampsNegative) {
  Relu relu("r");
  Tensor x{Shape{4}, {-1, 0, 2, -3}};
  EXPECT_EQ(relu.forward(x, false), (Tensor{Shape{4}, {0, 0, 2, 0}}));
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop("d", 0.5);
  Tensor x{Shape{100}, std::vector<float>(100, 1.0f)};
  EXPECT_EQ(drop.forward(x, /*training=*/false), x);
}

TEST(Dropout, TrainingDropsApproximatelyRate) {
  Dropout drop("d", 0.3, /*seed=*/5);
  Tensor x{Shape{10000}, std::vector<float>(10000, 1.0f)};
  const Tensor y = drop.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    }
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.02);
  // Inverted dropout preserves the expected sum.
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(Dropout("d", 1.0), InvalidArgument);
  EXPECT_THROW(Dropout("d", -0.1), InvalidArgument);
}

TEST(Flatten, FlattensAndRestores) {
  Flatten flat("f");
  Tensor x{Shape{2, 3, 4}};
  const Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.shape(), Shape{24});
  const Tensor g = flat.backward(Tensor{Shape{24}});
  EXPECT_EQ(g.shape(), (Shape{2, 3, 4}));
}

TEST(Loss, SoftmaxCrossEntropyGradient) {
  Tensor logits{Shape{3}, {1.0f, 2.0f, 0.5f}};
  const LossResult r = softmax_cross_entropy(logits, 1);
  EXPECT_GT(r.loss, 0.0);
  // Gradient sums to zero and is negative only at the true class.
  double sum = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    sum += r.grad_logits[i];
  }
  EXPECT_NEAR(sum, 0.0, 1e-6);
  EXPECT_LT(r.grad_logits[1], 0.0f);
  EXPECT_GT(r.grad_logits[0], 0.0f);
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits{Shape{2}, {100.0f, -100.0f}};
  EXPECT_NEAR(softmax_cross_entropy(logits, 0).loss, 0.0, 1e-6);
  EXPECT_THROW(softmax_cross_entropy(logits, 2), InvalidArgument);
}

TEST(Network, ShapeInferenceChains) {
  Network net(Shape{1, 8, 8});
  net.add(std::make_unique<Conv2d>(
      "c1", Conv2dSpec{.in_channels = 1, .out_channels = 4, .kernel = 3,
                       .stride = 1, .pad = 1, .use_bias = false}));
  net.add(std::make_unique<Relu>("r1"));
  net.add(std::make_unique<AvgPool>("p1", 2));
  net.add(std::make_unique<Flatten>("f"));
  net.add(std::make_unique<Dense>("fc", 4 * 4 * 4, 10, false));
  EXPECT_EQ(net.output_shape(), Shape{10});
  EXPECT_EQ(net.num_layers(), 5u);
  EXPECT_GT(net.num_parameters(), 0u);
}

TEST(Network, AddRejectsMismatchedLayer) {
  Network net(Shape{8});
  EXPECT_THROW(net.add(std::make_unique<Dense>("fc", 9, 2)), ShapeError);
}

TEST(Network, ForwardCollectAlignsWithLayers) {
  Network net = mlp(Shape{4}, 8, 3, /*init_seed=*/2);
  Tensor x{Shape{4}, {0.1f, 0.2f, 0.3f, 0.4f}};
  const auto acts = net.forward_collect(x);
  ASSERT_EQ(acts.size(), net.num_layers());
  EXPECT_EQ(acts.back().shape(), Shape{3});
  // The collected final activation equals a plain forward pass.
  const Tensor y = net.forward(x, false);
  EXPECT_TRUE(ops::allclose(acts.back(), y));
}

TEST(Network, SummaryMentionsLayers) {
  Network net = mlp(Shape{4}, 8, 3);
  const std::string s = net.summary();
  EXPECT_NE(s.find("fc1"), std::string::npos);
  EXPECT_NE(s.find("fc2"), std::string::npos);
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t{shape};
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Layer, CloneIsDeep) {
  struct Case {
    std::function<LayerPtr()> make;
    Shape in;
    Shape clone_in;  ///< the clone's input; a new shape where only a shape is cached
  };
  const std::vector<Case> cases{
      {[] {
         return std::make_unique<Conv2d>(
             "conv", Conv2dSpec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                                .stride = 1, .pad = 1, .use_bias = true});
       },
       {2, 5, 5}, {2, 5, 5}},
      {[] { return std::make_unique<Dense>("fc", 6, 4, /*use_bias=*/true); }, {6}, {6}},
      {[] { return std::make_unique<AvgPool>("pool", 2); }, {2, 4, 4}, {3, 6, 6}},
      {[] { return std::make_unique<Relu>("relu"); }, {2, 3, 3}, {2, 3, 3}},
      {[] { return std::make_unique<Dropout>("drop", 0.5, 99); }, {2, 3, 3}, {2, 3, 3}},
      {[] { return std::make_unique<Flatten>("flat"); }, {2, 3, 3}, {3, 2, 2}},
  };
  std::set<LayerKind> covered;
  for (const Case& c : cases) {
    LayerPtr orig = c.make();
    LayerPtr ref = c.make();
    SCOPED_TRACE(layer_kind_name(orig->kind()));
    covered.insert(orig->kind());
    for (Layer* layer : {orig.get(), ref.get()}) {
      Rng init(7);
      for (Param* p : layer->params()) {
        p->value = random_tensor(p->value.shape(), init);
        p->grad = random_tensor(p->grad.shape(), init);
      }
    }
    Rng data(11);
    const Tensor x = random_tensor(c.in, data);
    const Tensor g = random_tensor(orig->output_shape(c.in), data);
    orig->forward(x, /*training=*/true);
    ref->forward(x, /*training=*/true);

    LayerPtr copy = orig->clone();
    ASSERT_EQ(copy->kind(), orig->kind());
    EXPECT_EQ(copy->name(), orig->name());
    ASSERT_EQ(copy->params().size(), orig->params().size());
    for (std::size_t j = 0; j < copy->params().size(); ++j) {
      EXPECT_TRUE(bits_equal(copy->params()[j]->value, orig->params()[j]->value));
      EXPECT_TRUE(bits_equal(copy->params()[j]->grad, orig->params()[j]->grad));
    }
    // Mutate the clone's weights, grads and caches.
    for (Param* p : copy->params()) {
      p->value.fill(3.0f);
      p->grad.fill(-2.0f);
    }
    const Tensor x2 = random_tensor(c.clone_in, data);
    copy->forward(x2, /*training=*/true);
    copy->backward(random_tensor(copy->output_shape(c.clone_in), data));

    // The original still backpropagates its own sample with its own state.
    EXPECT_TRUE(bits_equal(orig->backward(g), ref->backward(g)));
    for (std::size_t j = 0; j < orig->params().size(); ++j) {
      EXPECT_TRUE(bits_equal(orig->params()[j]->value, ref->params()[j]->value));
      EXPECT_TRUE(bits_equal(orig->params()[j]->grad, ref->params()[j]->grad));
    }
  }
  EXPECT_EQ(covered, (std::set<LayerKind>{LayerKind::kConv2d, LayerKind::kDense,
                                          LayerKind::kAvgPool, LayerKind::kRelu,
                                          LayerKind::kDropout, LayerKind::kFlatten}));
}

TEST(Layer, ClonedDropoutContinuesTheStream) {
  Dropout drop("drop", 0.5, 1234);
  const Tensor x{Shape{64}, 1.0f};
  drop.forward(x, /*training=*/true);
  LayerPtr copy = drop.clone();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(bits_equal(drop.forward(x, /*training=*/true),
                           copy->forward(x, /*training=*/true)));
  }
}

TEST(Dropout, PresetMaskReplacesTheNextDraw) {
  Dropout drawn("drop", 0.3, 77);
  Dropout twin("drop", 0.3, 77);
  Dropout preset("drop", 0.3, 5);
  Rng rng(3);
  const Tensor x = random_tensor(Shape{2, 4, 4}, rng);
  const Tensor y = drawn.forward(x, /*training=*/true);
  preset.preset_mask(twin.draw_mask(x.shape()));
  EXPECT_TRUE(bits_equal(preset.forward(x, /*training=*/true), y));
  // The preset is consumed: the next forward draws from the layer's own stream.
  Dropout fresh("drop", 0.3, 5);
  EXPECT_TRUE(bits_equal(preset.forward(x, /*training=*/true),
                         fresh.forward(x, /*training=*/true)));
  preset.preset_mask(Tensor{Shape{3}});
  EXPECT_THROW(preset.forward(x, /*training=*/true), ShapeError);
}

TEST(Vgg, BuildsConfiguredArchitecture) {
  VggConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = 16;
  cfg.num_blocks = 2;
  cfg.base_width = 8;
  cfg.num_classes = 10;
  Network net = vgg_mini(cfg);
  EXPECT_EQ(net.input_shape(), (Shape{3, 16, 16}));
  EXPECT_EQ(net.output_shape(), Shape{10});
  // He init produced nonzero weights.
  bool any_nonzero = false;
  for (Param* p : net.params()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      if (p->value[i] != 0.0f) {
        any_nonzero = true;
      }
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Vgg, RejectsIndivisibleImage) {
  VggConfig cfg;
  cfg.image_size = 18;
  cfg.num_blocks = 3;
  EXPECT_THROW(vgg_mini(cfg), InvalidArgument);
}

}  // namespace
}  // namespace tsnn::dnn
