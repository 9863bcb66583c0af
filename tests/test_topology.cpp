// Tests for synapse topologies: the per-spike reference summed over an
// input must agree with the dense pass, one-spike propagate() must add the
// presynaptic column, and conv topology must match the DNN conv layer.
// apply_dense() and propagate() write the topology's accumulator layout, so
// comparisons against canonical values go through test::to_canonical().
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dnn/conv2d.h"
#include "snn/topology.h"
#include "spike_test_util.h"
#include "tensor/tensor_ops.h"

namespace tsnn::snn {
namespace {

using test::one_spike;
using test::reference_accumulate;
using test::to_canonical;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Property: the per-event reference summed over x equals apply_dense(x).
void check_event_dense_agreement(const SynapseTopology& syn, std::uint64_t seed) {
  const Tensor x = random_tensor(Shape{syn.in_size()}, seed);
  std::vector<float> via_events(syn.out_size(), 0.0f);
  for (std::size_t i = 0; i < syn.in_size(); ++i) {
    if (x[i] != 0.0f) {
      reference_accumulate(syn, i, x[i], via_events.data());
    }
  }
  std::vector<float> accum(syn.out_size(), 0.0f);
  syn.apply_dense(x.data(), accum.data());
  const std::vector<float> via_dense = to_canonical(syn, accum.data());
  for (std::size_t j = 0; j < syn.out_size(); ++j) {
    EXPECT_NEAR(via_events[j], via_dense[j], 1e-4f) << "output " << j;
  }
}

TEST(DenseTopology, EventEqualsDense) {
  DenseTopology syn(random_tensor(Shape{7, 5}, 1));
  EXPECT_EQ(syn.in_size(), 5u);
  EXPECT_EQ(syn.out_size(), 7u);
  check_event_dense_agreement(syn, 2);
}

TEST(DenseTopology, OneSpikeAddsItsColumn) {
  Tensor w{Shape{2, 3}, {1, 2, 3, 4, 5, 6}};
  DenseTopology syn(w);
  std::vector<float> u(2, 0.0f);
  syn.propagate(one_spike(1, 2.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 4.0f);
  EXPECT_FLOAT_EQ(u[1], 10.0f);
  EXPECT_THROW(syn.propagate(one_spike(3, 1.0f), u.data()), InvalidArgument);
}

TEST(DenseTopology, ScaleWeights) {
  Tensor w{Shape{1, 2}, {1, 2}};
  DenseTopology syn(w);
  syn.scale_weights(3.0f);
  std::vector<float> u(1, 0.0f);
  syn.propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 3.0f);
}

TEST(DenseTopology, CloneIsDeep) {
  DenseTopology syn(Tensor{Shape{1, 1}, {1.0f}});
  auto copy = syn.clone();
  copy->scale_weights(5.0f);
  std::vector<float> u(1, 0.0f);
  syn.propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 1.0f);  // original untouched
}

TEST(ConvTopology, EventEqualsDense) {
  ConvTopology syn(random_tensor(Shape{4, 3, 3, 3}, 3), 6, 6, 1, 1);
  EXPECT_EQ(syn.in_size(), 3u * 36u);
  EXPECT_EQ(syn.out_size(), 4u * 36u);
  check_event_dense_agreement(syn, 4);
}

TEST(ConvTopology, EventEqualsDenseStride2NoPad) {
  ConvTopology syn(random_tensor(Shape{2, 1, 3, 3}, 5), 7, 7, 2, 0);
  EXPECT_EQ(syn.out_h(), 3u);
  EXPECT_EQ(syn.out_w(), 3u);
  check_event_dense_agreement(syn, 6);
}

TEST(ConvTopology, MatchesDnnConvForward) {
  const Tensor w = random_tensor(Shape{3, 2, 3, 3}, 7);
  dnn::Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                       .stride = 1, .pad = 1, .use_bias = false};
  dnn::Conv2d conv("c", spec);
  conv.weight().value = w;
  const Tensor x = random_tensor(Shape{2, 5, 5}, 8);
  const Tensor y_dnn = conv.forward(x, false);

  ConvTopology syn(w, 5, 5, 1, 1);
  std::vector<float> accum(syn.out_size(), 0.0f);
  syn.apply_dense(x.data(), accum.data());
  const std::vector<float> y_snn = to_canonical(syn, accum.data());
  for (std::size_t i = 0; i < y_dnn.numel(); ++i) {
    EXPECT_NEAR(y_dnn[i], y_snn[i], 1e-4f);
  }
}

TEST(ConvTopology, ScaleWeights) {
  ConvTopology syn(Tensor{Shape{1, 1, 1, 1}, {2.0f}}, 2, 2, 1, 0);
  syn.scale_weights(0.5f);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate(one_spike(0, 1.0f), u.data());
  EXPECT_FLOAT_EQ(u[0], 1.0f);
}

TEST(PoolTopology, EventEqualsDense) {
  PoolTopology syn(3, 4, 4, 2);
  EXPECT_EQ(syn.in_size(), 48u);
  EXPECT_EQ(syn.out_size(), 12u);
  check_event_dense_agreement(syn, 9);
}

TEST(PoolTopology, AveragesUniformInput) {
  PoolTopology syn(1, 2, 2, 2);
  std::vector<float> y(1, 0.0f);
  const float x[4] = {1, 2, 3, 4};
  syn.apply_dense(x, y.data());
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(PoolTopology, ScaleAffectsPoolWeight) {
  PoolTopology syn(1, 2, 2, 2);
  syn.scale_weights(4.0f);
  EXPECT_FLOAT_EQ(syn.pool_weight(), 1.0f);  // 1/4 * 4
}

TEST(PoolTopology, RejectsIndivisible) {
  EXPECT_THROW(PoolTopology(1, 3, 4, 2), ShapeError);
}

TEST(ConvTopology, CloneIndependence) {
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 10), 4, 4, 1, 1);
  auto copy = syn.clone();
  copy->scale_weights(0.0f);
  check_event_dense_agreement(syn, 11);  // original still consistent/nonzero
  std::vector<float> u(copy->out_size(), 0.0f);
  copy->propagate(one_spike(0, 1.0f), u.data());
  for (const float v : u) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

}  // namespace
}  // namespace tsnn::snn
