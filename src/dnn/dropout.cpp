#include "dnn/dropout.h"

#include <utility>

namespace tsnn::dnn {

Dropout::Dropout(std::string name, double rate, std::uint64_t seed)
    : name_(std::move(name)), rate_(rate), rng_(seed) {
  TSNN_CHECK_MSG(rate_ >= 0.0 && rate_ < 1.0, "dropout rate out of [0,1): " << rate_);
}

Tensor Dropout::draw_mask(const Shape& shape) {
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  Tensor mask{shape};
  float* pm = mask.data();
  for (std::size_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
  }
  return mask;
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0) {
    return x;
  }
  if (preset_mask_.empty()) {
    cached_mask_ = draw_mask(x.shape());
  } else {
    TSNN_CHECK_SHAPE(preset_mask_.shape() == x.shape(),
                     "dropout " << name_ << ": preset mask shape mismatch");
    cached_mask_ = std::exchange(preset_mask_, Tensor{});
  }
  Tensor y = x;
  const float* pm = cached_mask_.data();
  float* py = y.data();
  for (std::size_t i = 0; i < y.numel(); ++i) {
    py[i] = pm[i] == 0.0f ? 0.0f : py[i] * pm[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!last_training_ || rate_ == 0.0) {
    return grad_out;
  }
  TSNN_CHECK_SHAPE(grad_out.shape() == cached_mask_.shape(),
                   "dropout " << name_ << ": grad shape mismatch");
  Tensor grad_in = grad_out;
  const float* pm = cached_mask_.data();
  float* pg = grad_in.data();
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    pg[i] *= pm[i];
  }
  return grad_in;
}

}  // namespace tsnn::dnn
