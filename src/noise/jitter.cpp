#include "noise/jitter.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/string_util.h"

namespace tsnn::noise {

JitterNoise::JitterNoise(double sigma) : sigma_(sigma) {
  TSNN_CHECK_MSG(std::isfinite(sigma_) && sigma_ >= 0.0,
                 "jitter sigma must be finite and non-negative: " << sigma_);
}

void JitterNoise::apply_inplace(snn::EventBuffer& events,
                                snn::EventSortScratch& scratch,
                                Rng& rng) const {
  if (sigma_ == 0.0) {
    return;
  }
  // One Gaussian draw per event in time-major order; the stable re-bucket
  // keeps events that land on the same step in draw order.
  const auto last = static_cast<std::int64_t>(events.window()) - 1;
  events.remap_times(
      [&](std::int32_t t, std::uint32_t /*neuron*/) {
        const auto shift =
            static_cast<std::int64_t>(std::lround(rng.normal(0.0, sigma_)));
        return static_cast<std::int32_t>(std::clamp<std::int64_t>(
            static_cast<std::int64_t>(t) + shift, 0, last));
      },
      scratch);
}

std::string JitterNoise::name() const {
  return "jitter(sigma=" + str::format_fixed(sigma_, 2) + ")";
}

}  // namespace tsnn::noise
