// Spike jitter noise: each spike time is shifted by quantized Gaussian
// noise (paper SS III: zero mean, stddev sigma, rounded to integer steps).
#pragma once

#include "snn/noise_base.h"

namespace tsnn::noise {

/// Per-spike Gaussian time jitter, clamped into the train's window so spike
/// *count* is preserved (only timing is corrupted).
class JitterNoise : public snn::NoiseModel {
 public:
  explicit JitterNoise(double sigma);

  /// In-place time rewrite + stable counting-sort re-bucket via `scratch`;
  /// one Gaussian draw per event, time-major.
  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override;

  double sigma() const { return sigma_; }

 private:
  double sigma_;
};

}  // namespace tsnn::noise
