// Training-loop tests: the engine actually learns, and the data-parallel
// trainer is bit-identical to the serial pass it replaced.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/hash.h"
#include "common/rng.h"
#include "dnn/optimizer.h"
#include "dnn/trainer.h"
#include "dnn/vgg.h"

namespace tsnn::dnn {
namespace {

/// Tiny linearly-structured 3-class problem: class = argmax of three probe
/// sums over disjoint input thirds, plus noise.
void make_toy_problem(std::size_t n, std::vector<Tensor>& images,
                      std::vector<std::size_t>& labels, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor x{Shape{12}};
    const std::size_t cls = rng.uniform_index(3);
    for (std::size_t j = 0; j < 12; ++j) {
      x[j] = static_cast<float>(rng.uniform(0.0, 0.3));
    }
    for (std::size_t j = cls * 4; j < cls * 4 + 4; ++j) {
      x[j] += static_cast<float>(rng.uniform(0.4, 0.7));
    }
    images.push_back(std::move(x));
    labels.push_back(cls);
  }
}

/// True when every parameter of `a` and `b` has identical bytes.
bool same_params(Network& a, Network& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) {
    return false;
  }
  for (std::size_t j = 0; j < pa.size(); ++j) {
    const Tensor& va = pa[j]->value;
    const Tensor& vb = pb[j]->value;
    if (va.shape() != vb.shape() ||
        std::memcmp(va.data(), vb.data(), va.numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// A small VGG-mini with conv and dense dropout, trained on 70 samples at
/// batch 32 (so the last batch is short).
struct SmallVggRun {
  Network net{Shape{1}};
  TrainResult result;
};

SmallVggRun train_small_vgg() {
  Rng rng(2024);
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < 70; ++i) {
    Tensor x{Shape{1, 8, 8}};
    const std::size_t cls = rng.uniform_index(3);
    for (std::size_t j = 0; j < x.numel(); ++j) {
      x[j] = static_cast<float>(rng.uniform(0.0, 0.5));
    }
    for (std::size_t j = cls * 16; j < cls * 16 + 16; ++j) {
      x[j] += 0.5f;
    }
    images.push_back(std::move(x));
    labels.push_back(cls);
  }
  VggConfig vc;
  vc.in_channels = 1;
  vc.image_size = 8;
  vc.num_classes = 3;
  vc.base_width = 4;
  vc.num_blocks = 2;
  vc.dense_width = 16;
  vc.conv_dropout = 0.25;
  vc.dense_dropout = 0.5;
  vc.init_seed = 5;
  SmallVggRun run;
  run.net = vgg_mini(vc);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.sgd.lr = 0.05;
  cfg.shuffle_seed = 13;
  run.result = train(run.net, images, labels, cfg);
  return run;
}

TEST(Trainer, SmallVggMatchesSerialPins) {
  // FNV-1a over the trained parameter bytes and every per-epoch statistic,
  // captured from the serial trainer that preceded the data-parallel one.
  // The trainer runs on every core of the host, so this pins bit-identity
  // with the serial pass at the host's core count; a drift in the gradient
  // arithmetic, its summation order or the dropout stream moves it.
  SmallVggRun run = train_small_vgg();
  std::uint64_t h = kFnv1a64Offset;
  for (const Param* p : run.net.params()) {
    h = fnv1a64(p->value.data(), p->value.numel() * sizeof(float), h);
  }
  EXPECT_EQ(h, 0xba8fc71704a8cb5aull);
  const double loss[] = {1.1437179500354024, 1.1146449407096066, 1.1054049837106654};
  const double acc[] = {22.0 / 70.0, 21.0 / 70.0, 21.0 / 70.0};
  ASSERT_EQ(run.result.epochs.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    SCOPED_TRACE(e);
    const EpochStats& stats = run.result.epochs[e];
    EXPECT_EQ(stats.epoch, e);
    EXPECT_EQ(stats.mean_loss, loss[e]);
    EXPECT_EQ(stats.train_accuracy, acc[e]);
    EXPECT_EQ(stats.lr, 0.05);
  }
  EXPECT_EQ(run.result.final_train_accuracy, acc[2]);
}

TEST(Trainer, ThrowingSampleRethrows) {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  make_toy_problem(96, images, labels, 4);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  Network net = mlp(Shape{12}, 8, 3);
  Rng rng(cfg.shuffle_seed);
  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);  // the order the trainer's first epoch visits
  // Out of range for 3 classes, in the middle of the second batch: earlier
  // samples commit, later ones wait on it, and all must be released.
  labels[order[48]] = 3;
  EXPECT_THROW(train(net, images, labels, cfg), InvalidArgument);
}

TEST(Trainer, LearnsToyProblem) {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  make_toy_problem(300, images, labels, 1);

  Network net = mlp(Shape{12}, 16, 3, /*init_seed=*/7);
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.batch_size = 16;
  cfg.sgd.lr = 0.1;
  cfg.sgd.weight_decay = 0.0;
  const TrainResult result = train(net, images, labels, cfg);

  EXPECT_GT(result.final_train_accuracy, 0.95);
  // Loss decreased substantially from the first epoch.
  EXPECT_LT(result.epochs.back().mean_loss, result.epochs.front().mean_loss * 0.5);

  std::vector<Tensor> test_images;
  std::vector<std::size_t> test_labels;
  make_toy_problem(100, test_images, test_labels, 2);
  EXPECT_GT(evaluate_accuracy(net, test_images, test_labels), 0.9);
}

TEST(Trainer, EpochStatsArePopulated) {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  make_toy_problem(60, images, labels, 3);
  Network net = mlp(Shape{12}, 8, 3);
  TrainConfig cfg;
  cfg.epochs = 3;
  const TrainResult result = train(net, images, labels, cfg);
  ASSERT_EQ(result.epochs.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(result.epochs[e].epoch, e);
    EXPECT_GT(result.epochs[e].lr, 0.0);
    EXPECT_GE(result.epochs[e].train_accuracy, 0.0);
    EXPECT_LE(result.epochs[e].train_accuracy, 1.0);
  }
}

TEST(Trainer, RejectsBadInputs) {
  Network net = mlp(Shape{12}, 8, 3);
  std::vector<Tensor> images;
  std::vector<std::size_t> labels{0};
  EXPECT_THROW(train(net, images, labels, TrainConfig{}), InvalidArgument);
}

TEST(Trainer, DeterministicGivenSeeds) {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  make_toy_problem(100, images, labels, 5);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.shuffle_seed = 11;

  Network net1 = mlp(Shape{12}, 8, 3, /*init_seed=*/9);
  Network net2 = mlp(Shape{12}, 8, 3, /*init_seed=*/9);
  train(net1, images, labels, cfg);
  train(net2, images, labels, cfg);
  EXPECT_TRUE(same_params(net1, net2));
}

TEST(Optimizer, MomentumAcceleratesConstantGradient) {
  Param p;
  p.name = "w";
  p.value = Tensor{Shape{1}, {0.0f}};
  p.grad = Tensor{Shape{1}, {1.0f}};
  SgdOptimizer opt({.lr = 0.1, .momentum = 0.9, .weight_decay = 0.0});
  std::vector<Param*> params{&p};
  opt.step(params);
  const float step1 = -p.value[0];
  const float before = p.value[0];
  opt.step(params);
  const float step2 = before - p.value[0];
  EXPECT_FLOAT_EQ(step1, 0.1f);
  EXPECT_GT(step2, step1);  // velocity accumulated
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Param p;
  p.name = "w";
  p.value = Tensor{Shape{1}, {10.0f}};
  p.grad = Tensor{Shape{1}, {0.0f}};
  SgdOptimizer opt({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.1});
  std::vector<Param*> params{&p};
  opt.step(params);
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(Optimizer, RejectsInvalidConfig) {
  EXPECT_THROW(SgdOptimizer({.lr = 0.0}), InvalidArgument);
  EXPECT_THROW(SgdOptimizer({.lr = 0.1, .momentum = 1.0}), InvalidArgument);
  EXPECT_THROW(SgdOptimizer({.lr = 0.1, .momentum = 0.5, .weight_decay = -1.0}),
               InvalidArgument);
}

TEST(Optimizer, StepDecaySchedule) {
  EXPECT_DOUBLE_EQ(step_decay_lr(0.1, 0.5, 4, 0), 0.1);
  EXPECT_DOUBLE_EQ(step_decay_lr(0.1, 0.5, 4, 3), 0.1);
  EXPECT_DOUBLE_EQ(step_decay_lr(0.1, 0.5, 4, 4), 0.05);
  EXPECT_DOUBLE_EQ(step_decay_lr(0.1, 0.5, 4, 8), 0.025);
}

TEST(Evaluate, EmptySetIsZero) {
  Network net = mlp(Shape{12}, 8, 3);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(net, {}, {}), 0.0);
}

}  // namespace
}  // namespace tsnn::dnn
