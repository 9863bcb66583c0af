// Layer interface of the TSNN DNN engine.
//
// The engine operates per-sample (rank-3 {c,h,w} or rank-1 {n} activations):
// training loops accumulate gradients across a minibatch explicitly. This
// keeps layer implementations simple and matches the per-image SNN
// simulation downstream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace tsnn::dnn {

/// Discriminates concrete layer types; used by serialization and by the
/// DNN-to-SNN converter, which walks the layer graph.
enum class LayerKind {
  kConv2d,
  kDense,
  kAvgPool,
  kRelu,
  kDropout,
  kFlatten,
};

/// Human-readable name of a layer kind ("conv2d", "dense", ...).
std::string layer_kind_name(LayerKind kind);

/// A trainable parameter: value plus accumulated gradient of equal shape.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  /// Resets the gradient accumulator to zero.
  void zero_grad() { grad.fill(0.0f); }
};

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/// Abstract differentiable layer.
///
/// forward() caches whatever backward() needs; backward() consumes the
/// gradient w.r.t. the layer output and returns the gradient w.r.t. the
/// input while accumulating parameter gradients (+=).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Concrete type tag.
  virtual LayerKind kind() const = 0;

  /// Short unique-ish name for logs and serialization ("conv1", ...).
  virtual std::string name() const = 0;

  /// Computes the layer output. `training` enables train-only behaviour
  /// (dropout masking); inference passes false.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Backpropagates: returns dLoss/dInput and accumulates parameter grads.
  /// Must be called after forward() on the same sample.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Output shape for a given input shape (shape inference).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Deep copy: parameters, gradients, forward caches and (for Dropout) the
  /// mask stream. The data-parallel trainer runs one clone per worker.
  virtual LayerPtr clone() const = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
  std::vector<const Param*> params() const {
    auto mut = const_cast<Layer*>(this)->params();
    return {mut.begin(), mut.end()};
  }
};

}  // namespace tsnn::dnn
