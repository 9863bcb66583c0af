// Average pooling layer.
//
// Average (not max) pooling is used throughout TSNN because it is linear and
// therefore maps exactly onto fixed uniform synapses in the converted SNN --
// the standard choice in the DNN-to-SNN conversion literature.
#pragma once

#include "dnn/layer.h"

namespace tsnn::dnn {

/// Non-overlapping k x k average pooling (stride == kernel).
class AvgPool : public Layer {
 public:
  AvgPool(std::string name, std::size_t kernel);

  LayerKind kind() const override { return LayerKind::kAvgPool; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<AvgPool>(*this); }

  std::size_t kernel() const { return kernel_; }

 private:
  std::string name_;
  std::size_t kernel_;
  Shape cached_in_shape_;
};

}  // namespace tsnn::dnn
