// Fully connected layer: y = W x (+ b).
#pragma once

#include "dnn/layer.h"

namespace tsnn::dnn {

/// Dense (fully connected) layer with weight {out, in} and optional bias.
class Dense : public Layer {
 public:
  /// Creates a zero-initialized dense layer; call init.h helpers (or the
  /// builders in vgg.h) to randomize weights.
  Dense(std::string name, std::size_t in_features, std::size_t out_features,
        bool use_bias = true);

  LayerKind kind() const override { return LayerKind::kDense; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Dense>(*this); }
  std::vector<Param*> params() override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }
  bool use_bias() const { return use_bias_; }

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

 private:
  std::string name_;
  std::size_t in_features_;
  std::size_t out_features_;
  bool use_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace tsnn::dnn
