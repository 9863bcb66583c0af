// Activation layers. Only ReLU is needed: spiking IF neurons implement ReLU
// semantics after conversion, which is why the whole conversion literature
// (and this paper) trains ReLU networks.
#pragma once

#include "dnn/layer.h"

namespace tsnn::dnn {

/// Rectified linear unit, y = max(0, x), any input rank.
class Relu : public Layer {
 public:
  explicit Relu(std::string name);

  LayerKind kind() const override { return LayerKind::kRelu; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override { return in; }
  LayerPtr clone() const override { return std::make_unique<Relu>(*this); }

 private:
  std::string name_;
  Tensor cached_input_;
};

}  // namespace tsnn::dnn
