// Noise-model composition and factories.
#pragma once

#include <memory>
#include <vector>

#include "snn/noise_base.h"

namespace tsnn::noise {

/// Applies member models in order: composite[a + b] feeds a's output train
/// to b, exactly like function composition b(a(x)).
///
/// Ordering contract (tests/test_noise.cpp, CompositeOrdering):
///   - Order is significant. deletion-then-jitter first thins the train and
///     then displaces the survivors; jitter-then-deletion displaces every
///     spike and then thins -- for a fixed seed the two produce different
///     trains (different events survive AND the rng draw sequences diverge
///     after the first stage). Scenario specs therefore treat the stack as
///     an ordered list, and name() reports members in application order.
///   - apply_inplace() chains the members over one EventBuffer and one
///     shared rng, so composition is associative: composite[a + composite[b
///     + c]] corrupts exactly like composite[a + b + c]. For stacks of any
///     depth the result matches the test-only reference loops
///     (tests/spike_test_util.h) chained in the same order.
class CompositeNoise : public snn::NoiseModel {
 public:
  explicit CompositeNoise(std::vector<snn::NoiseModelPtr> models);

  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override;

  std::size_t size() const { return models_.size(); }

 private:
  std::vector<snn::NoiseModelPtr> models_;
};

/// Identity noise (useful as a sweep baseline).
class NoNoise : public snn::NoiseModel {
 public:
  void apply_inplace(snn::EventBuffer& events, snn::EventSortScratch& scratch,
                     Rng& rng) const override;
  std::string name() const override { return "clean"; }
};

/// Factory helpers used throughout benches and examples.
snn::NoiseModelPtr make_deletion(double p);
snn::NoiseModelPtr make_jitter(double sigma);
snn::NoiseModelPtr make_deletion_jitter(double p, double sigma);
snn::NoiseModelPtr make_clean();

}  // namespace tsnn::noise
