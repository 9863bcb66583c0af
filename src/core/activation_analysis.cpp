#include "core/activation_analysis.h"

#include <cmath>

#include "common/error.h"
#include "core/weight_scaling.h"
#include "noise/noise.h"

namespace tsnn::core {

ActivationDistribution analyze_activation(const snn::CodingScheme& scheme,
                                          const ActivationAnalysisConfig& config) {
  TSNN_CHECK_MSG(config.activation > 0.0f && config.activation <= 1.0f,
                 "activation out of (0,1]");
  TSNN_CHECK_MSG(config.trials > 0, "need at least one trial");

  Tensor a{Shape{1}};
  a[0] = config.activation;
  snn::SimWorkspace sim;
  snn::EventBuffer clean;
  scheme.encode_into(a, sim, clean);
  const float clean_value = scheme.decode(clean)[0];

  snn::NoiseModelPtr noise;
  if (config.deletion_p > 0.0 && config.jitter_sigma > 0.0) {
    noise = noise::make_deletion_jitter(config.deletion_p, config.jitter_sigma);
  } else if (config.deletion_p > 0.0) {
    noise = noise::make_deletion(config.deletion_p);
  } else {
    noise = noise::make_jitter(config.jitter_sigma);
  }

  const float ws = config.weight_scaling && config.deletion_p > 0.0
                       ? weight_scaling_factor(config.deletion_p)
                       : 1.0f;

  // Each trial corrupts a fresh copy of the clean train; copy-assignment
  // reuses `noisy`'s storage, so the loop allocates only decode()'s tensor.
  Rng rng(config.seed);
  std::vector<float> delivered;
  delivered.reserve(config.trials);
  snn::EventBuffer noisy;
  for (std::size_t i = 0; i < config.trials; ++i) {
    noisy = clean;
    noise->apply_inplace(noisy, sim.sort, rng);
    delivered.push_back(ws * scheme.decode(noisy)[0]);
  }

  ActivationDistribution out;
  const double hi = 1.5 * static_cast<double>(config.activation);
  out.histogram = stats::histogram(delivered, config.bins, 0.0, hi);
  out.mean = stats::mean(delivered);
  out.stddev = stats::stddev(delivered);
  std::size_t zeros = 0;
  std::size_t fulls = 0;
  for (const float v : delivered) {
    if (v < 0.05f * clean_value) {
      ++zeros;
    }
    if (std::fabs(v - clean_value) < 0.1f * clean_value) {
      ++fulls;
    }
  }
  out.p_zero = static_cast<double>(zeros) / static_cast<double>(delivered.size());
  out.p_full = static_cast<double>(fulls) / static_cast<double>(delivered.size());
  return out;
}

}  // namespace tsnn::core
