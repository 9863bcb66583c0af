// Flatten layer: {c,h,w} -> {c*h*w}. Pure index bookkeeping.
#pragma once

#include "dnn/layer.h"

namespace tsnn::dnn {

/// Reshapes any input to rank 1; backward restores the cached input shape.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name);

  LayerKind kind() const override { return LayerKind::kFlatten; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  std::string name_;
  Shape cached_in_shape_;
};

}  // namespace tsnn::dnn
