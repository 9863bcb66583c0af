// Inverted dropout.
//
// Dropout is central to this paper's analysis: training the source DNN with
// dropout makes its weights tolerant of all-or-none activation loss, which
// is why TTFS coding (whose deletion noise zeroes whole activations) is the
// most deletion-robust baseline (paper §III).
#pragma once

#include "common/rng.h"
#include "dnn/layer.h"

namespace tsnn::dnn {

/// Inverted dropout: at train time each element is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); inference is the identity.
class Dropout : public Layer {
 public:
  Dropout(std::string name, double rate, std::uint64_t seed = 0x5eedULL);

  LayerKind kind() const override { return LayerKind::kDropout; }
  std::string name() const override { return name_; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override { return in; }
  LayerPtr clone() const override { return std::make_unique<Dropout>(*this); }

  double rate() const { return rate_; }

  /// Reseeds the mask stream (used for reproducible training runs).
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Draws the next scaled keep mask (0 or 1/(1-rate) per element) for an
  /// input of `shape` from this layer's stream: one bernoulli per element,
  /// in element order. A training forward() without a preset mask draws
  /// exactly this.
  Tensor draw_mask(const Shape& shape);

  /// Makes the next training forward() apply `mask` instead of drawing one.
  /// The data-parallel trainer draws every sample's mask from the master
  /// layer in sample order and presets it on the replica that runs the
  /// sample, so the stream is the serial one on any core count.
  void preset_mask(Tensor mask) { preset_mask_ = std::move(mask); }

 private:
  std::string name_;
  double rate_;
  Rng rng_;
  Tensor preset_mask_;  ///< mask for the next training forward; empty = draw
  Tensor cached_mask_;  ///< scaled keep mask of the last training forward
  bool last_training_ = false;
};

}  // namespace tsnn::dnn
