#include "noise/deletion.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"

namespace tsnn::noise {

namespace {

/// Raw words per block drawn onto the stack.
constexpr std::size_t kBlockWords = 256;

}  // namespace

DeletionNoise::DeletionNoise(double p) : p_(p) {
  TSNN_CHECK_MSG(p_ >= 0.0 && p_ <= 1.0, "deletion probability out of [0,1]: " << p_);
  threshold_ = Rng::bernoulli_threshold(p_);
}

void DeletionNoise::apply_inplace(snn::EventBuffer& events,
                                  snn::EventSortScratch& scratch,
                                  Rng& rng) const {
  if (p_ == 0.0) {
    return;
  }
  // One Bernoulli draw per event in time-major emission order -- exactly
  // the finalized stream order -- staged as a keep mask so the compaction
  // itself can run through the SIMD dispatch table
  // (EventBuffer::remove_by_mask). rng.bernoulli(p) deletes exactly when
  // its word has (w >> 11) < threshold_, so the mask comes from raw words
  // drawn a block at a time, one integer compare each.
  const std::size_t n = events.size();
  scratch.keep.resize(n);
  std::uint8_t* keep = scratch.keep.data();
  std::uint64_t words[kBlockWords];
  for (std::size_t i = 0; i < n; i += kBlockWords) {
    const std::size_t m = std::min(kBlockWords, n - i);
    rng.fill(words, m);
    for (std::size_t k = 0; k < m; ++k) {
      keep[i + k] = (words[k] >> 11) >= threshold_ ? 1 : 0;
    }
  }
  events.remove_by_mask(keep);
}

std::string DeletionNoise::name() const {
  return "deletion(p=" + str::format_fixed(p_, 2) + ")";
}

}  // namespace tsnn::noise
