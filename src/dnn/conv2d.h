// 2-D convolution layer over {channels, height, width} activations.
#pragma once

#include "dnn/layer.h"

namespace tsnn::dnn {

/// Configuration of a Conv2d layer.
struct Conv2dSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;   ///< square kernel extent
  std::size_t stride = 1;
  std::size_t pad = 1;      ///< symmetric zero padding
  bool use_bias = false;
};

/// Direct (non-im2col) convolution; weight layout {out_ch, in_ch, kh, kw}.
class Conv2d : public Layer {
 public:
  Conv2d(std::string name, Conv2dSpec spec);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }
  std::vector<Param*> params() override;

  const Conv2dSpec& spec() const { return spec_; }
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  Param& bias() { return bias_; }
  const Param& bias() const { return bias_; }

  /// Output spatial extent for input extent `in` under this spec.
  std::size_t out_extent(std::size_t in) const;

 private:
  std::string name_;
  Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace tsnn::dnn
