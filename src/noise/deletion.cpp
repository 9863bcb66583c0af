#include "noise/deletion.h"

#include "common/error.h"
#include "common/string_util.h"

namespace tsnn::noise {

DeletionNoise::DeletionNoise(double p) : p_(p) {
  TSNN_CHECK_MSG(p_ >= 0.0 && p_ <= 1.0, "deletion probability out of [0,1]: " << p_);
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
  // (EventBuffer::remove_by_mask).
  const std::size_t n = events.size();
  scratch.keep.resize(n);
  std::uint8_t* keep = scratch.keep.data();
  for (std::size_t i = 0; i < n; ++i) {
    keep[i] = rng.bernoulli(p_) ? 0 : 1;
  }
  events.remove_by_mask(keep);
}

std::string DeletionNoise::name() const {
  return "deletion(p=" + str::format_fixed(p_, 2) + ")";
}

}  // namespace tsnn::noise
