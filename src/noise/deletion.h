// Spike deletion noise: each spike is independently dropped with
// probability p (paper SS III, uniform random variable against p).
#pragma once

#include "snn/noise_base.h"

namespace tsnn::noise {

/// Bernoulli per-spike deletion.
class DeletionNoise : public snn::NoiseModel {
 public:
  explicit DeletionNoise(double p);

  /// In-place stream compaction: one Bernoulli draw per event, time-major,
  /// made as a raw-word compare against Rng::bernoulli_threshold(p).
  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override;

  double probability() const { return p_; }

 private:
  double p_;
  std::uint64_t threshold_;  ///< Rng::bernoulli_threshold(p_)
};

}  // namespace tsnn::noise
