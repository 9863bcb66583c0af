// Spike-noise model interface.
//
// Noise transforms a spike train into a corrupted spike train. Following the
// paper (SS II-B), TSNN models neuromorphic-device noise at the level of
// noisy output spikes -- deletion and jitter -- applied to every layer's
// output train including the input encoder's.
//
// apply_inplace() is the one entry point: the simulator (and every analysis)
// hands a finalized EventBuffer to the noise model, which corrupts it in
// place (deletion compacts the stream, jitter rewrites times and re-buckets)
// using only the caller's scratch -- no allocation once the workspace is
// warm. Events are visited in time-major emission order, so a fixed seed
// reproduces the exact corruption (pinned by golden vectors in
// tests/test_event_buffer.cpp).
#pragma once

#include <memory>
#include <string>

#include "common/rng.h"
#include "snn/event_buffer.h"

namespace tsnn::snn {

/// Abstract spike-train corruption.
class NoiseModel {
 public:
  virtual ~NoiseModel() = default;

  /// Corrupts the finalized `events` in place and leaves them finalized.
  /// Implementations draw randomness from `rng` only, one draw sequence per
  /// event in time-major order, so a fixed seed reproduces the exact
  /// corruption.
  virtual void apply_inplace(EventBuffer& events, EventSortScratch& scratch,
                             Rng& rng) const = 0;

  /// Human-readable description ("deletion(p=0.5)").
  virtual std::string name() const = 0;
};

using NoiseModelPtr = std::unique_ptr<NoiseModel>;

}  // namespace tsnn::snn
