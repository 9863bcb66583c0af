#include "noise/jitter.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/string_util.h"
#include "simd/kernels.h"

namespace tsnn::noise {

namespace {

/// Box-Muller pairs per block: 2 KB of words and shifts on the stack.
constexpr std::size_t kBlockPairs = 64;

}  // namespace

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
  // One Gaussian draw per event in time-major order: the integers
  // lround(rng.normal(0, sigma)) would give, drawn from the same words.
  // Whole Box-Muller pairs go through the jitter_shifts kernel a block at a
  // time; a sine cached by an earlier draw on this stream and an odd last
  // event go through Rng::normal itself, so the pair cache is consumed and
  // left exactly as per-event normal() calls would. The stable re-bucket
  // keeps events that land on the same step in draw order.
  const auto jitter_shifts = simd::kernels().jitter_shifts;
  std::uint64_t words[2 * kBlockPairs];
  std::int64_t shift[2 * kBlockPairs];
  std::size_t undrawn = events.size();
  std::size_t have = 0;
  std::size_t next = 0;
  const auto refill = [&] {
    if (undrawn >= 2 && !rng.has_cached_normal()) {
      const std::size_t pairs = std::min(kBlockPairs, undrawn / 2);
      rng.fill(words, 2 * pairs);
      jitter_shifts({words, pairs, sigma_, shift});
      have = 2 * pairs;
    } else {
      shift[0] = std::lround(rng.normal(0.0, sigma_));
      have = 1;
    }
    undrawn -= have;
    next = 0;
  };
  const auto last = static_cast<std::int64_t>(events.window()) - 1;
  events.remap_times(
      [&](std::int32_t t, std::uint32_t /*neuron*/) {
        if (next == have) {
          refill();
        }
        return static_cast<std::int32_t>(std::clamp<std::int64_t>(
            static_cast<std::int64_t>(t) + shift[next++], 0, last));
      },
      scratch);
}

std::string JitterNoise::name() const {
  return "jitter(sigma=" + str::format_fixed(sigma_, 2) + ")";
}

}  // namespace tsnn::noise
