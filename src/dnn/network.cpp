#include "dnn/network.h"

#include <sstream>

namespace tsnn::dnn {

Network::Network(Shape input_shape)
    : input_shape_(input_shape), output_shape_(std::move(input_shape)) {
  TSNN_CHECK_MSG(!input_shape_.empty(), "network input shape must be non-empty");
}

Network Network::clone() const {
  Network copy(input_shape_);
  for (const auto& layer : layers_) {
    copy.add(layer->clone());
  }
  return copy;
}

void Network::add(LayerPtr layer) {
  TSNN_CHECK_MSG(layer != nullptr, "cannot add null layer");
  output_shape_ = layer->output_shape(output_shape_);
  layers_.push_back(std::move(layer));
}

Tensor Network::forward(const Tensor& x, bool training) {
  TSNN_CHECK_SHAPE(x.shape() == input_shape_,
                   "network input " << shape_to_string(x.shape()) << " expected "
                                    << shape_to_string(input_shape_));
  Tensor a = x;
  for (const auto& layer : layers_) {
    a = layer->forward(a, training);
  }
  return a;
}

std::vector<Tensor> Network::forward_collect(const Tensor& x) {
  TSNN_CHECK_SHAPE(x.shape() == input_shape_,
                   "network input " << shape_to_string(x.shape()) << " expected "
                                    << shape_to_string(input_shape_));
  std::vector<Tensor> activations;
  activations.reserve(layers_.size());
  Tensor a = x;
  for (const auto& layer : layers_) {
    a = layer->forward(a, /*training=*/false);
    activations.push_back(a);
  }
  return activations;
}

Tensor Network::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (const auto& layer : layers_) {
    for (Param* p : layer->params()) {
      out.push_back(p);
    }
  }
  return out;
}

void Network::zero_grad() {
  for (Param* p : params()) {
    p->zero_grad();
  }
}

std::size_t Network::num_parameters() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    for (const Param* p : static_cast<const Layer&>(*layer).params()) {
      n += p->value.numel();
    }
  }
  return n;
}

Layer& Network::layer(std::size_t i) {
  TSNN_CHECK_MSG(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  TSNN_CHECK_MSG(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

std::string Network::summary() const {
  std::ostringstream oss;
  oss << shape_to_string(input_shape_);
  for (const auto& layer : layers_) {
    oss << " -> " << layer->name();
  }
  oss << " -> " << shape_to_string(output_shape_);
  return oss.str();
}

}  // namespace tsnn::dnn
