// Sequential feedforward network.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dnn/layer.h"

namespace tsnn::dnn {

/// A linear stack of layers with an explicit input shape.
///
/// The network owns its layers. Besides forward/backward it exposes the
/// layer list for the DNN-to-SNN converter and a forward variant that
/// records every intermediate activation (needed for data-based weight
/// normalization).
class Network {
 public:
  /// Creates an empty network expecting inputs of `input_shape`.
  explicit Network(Shape input_shape);

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Deep copy of every layer (Layer::clone). Copying is explicit because a
  /// network is large; the data-parallel trainer clones one per worker.
  Network clone() const;

  /// Appends a layer; its input shape must match the current output shape
  /// (validated via Layer::output_shape).
  void add(LayerPtr layer);

  /// Inference/training forward pass through all layers.
  Tensor forward(const Tensor& x, bool training = false);

  /// Forward pass that also returns the post-layer activation of every
  /// layer, index-aligned with layers(). Always runs in inference mode.
  std::vector<Tensor> forward_collect(const Tensor& x);

  /// Backward pass; call immediately after forward(x, true) for the same
  /// sample. Returns dLoss/dInput.
  Tensor backward(const Tensor& grad_out);

  /// All trainable parameters across layers.
  std::vector<Param*> params();

  /// Sets all parameter gradients to zero.
  void zero_grad();

  /// Total number of trainable scalar parameters.
  std::size_t num_parameters() const;

  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;
  const std::vector<LayerPtr>& layers() const { return layers_; }

  /// One-line structural summary ("conv1 -> relu1 -> ...").
  std::string summary() const;

 private:
  Shape input_shape_;
  Shape output_shape_;
  std::vector<LayerPtr> layers_;
};

}  // namespace tsnn::dnn
