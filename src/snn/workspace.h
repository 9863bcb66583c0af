// Per-thread reusable simulation workspace.
//
// One SimWorkspace owns every piece of mutable scratch the per-image hot
// path needs -- the layer-to-layer EventBuffer ping-pong pair, the
// counting-sort scratch, the encoder's state arrays, and the per-stage
// StageStates holding potentials and decoder state. All members are
// grow-only: vectors are re-dimensioned with assign()/resize() which never
// release capacity, so after a warm-up image the steady state performs
// zero heap allocations per image (see docs/ARCHITECTURE.md,
// "Event buffers & the zero-allocation workspace").
//
// A workspace is single-threaded state: snn::evaluate keeps one per worker
// thread, NoiseRobustPipeline keeps one for run(), and analyses such as
// core::analyze_activation keep one across their trials. Sharing a
// workspace across concurrent simulations is a data race.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "snn/event_buffer.h"
#include "snn/topology.h"

namespace tsnn::snn {

/// Exact floor(a / d) for every 32-bit a and a fixed divisor d >= 2,
/// through one multiply-high by m = ceil(2^64 / d) (Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation", 2019): the per-spike layout
/// arithmetic of the fire path runs without an integer division.
class Divisor {
 public:
  Divisor() = default;
  explicit Divisor(std::uint32_t d) : m_(~std::uint64_t{0} / d + 1) {}

  std::uint32_t quotient(std::uint32_t a) const {
    // (m * a) >> 64 from two 32 x 32 -> 64-bit products; the sum cannot
    // overflow because (m >> 32) * a <= (2^32 - 1)^2.
    const std::uint64_t lo = (m_ & 0xffffffffu) * a;
    const std::uint64_t hi = (m_ >> 32) * a;
    return static_cast<std::uint32_t>((hi + (lo >> 32)) >> 32);
  }

 private:
  std::uint64_t m_ = 0;
};

/// Per-stage mutable state of one in-flight layer (or readout) run under
/// the stepped CodingScheme interface (begin_layer/step_layer/end_layer).
/// Stage-by-stage runs lease SimWorkspace::seq; simulate_into()'s lockstep
/// wavefront leases one StageState per stage (SimWorkspace::stage_state)
/// so every stage of the wavefront holds its own potentials, scratch, and
/// output train concurrently. Grow-only, like the workspace itself.
///
/// The potentials u (and burst's counters k) live in the bound synapse's
/// accumulator layout, and the fire kernels scan them in that slot order.
/// canonical_fired() turns a scan's ascending fired slots into ascending
/// canonical neuron ids, the order every output train is emitted in.
struct StageState {
  EventSortScratch sort;  ///< counting-sort scratch for out.finalize()
  SpikeBatch batch;       ///< per-step propagation batch
  EventBuffer out;        ///< stage output train (wavefront only; stage-by-
                          ///< stage runs emit into a caller buffer)

  aligned_vector<float> u;             ///< potentials, accumulator slots
  aligned_vector<std::uint32_t> k;     ///< burst escalation counters, slots
  std::vector<std::int64_t> isi_last;  ///< burst ISI decoder: last arrival
  std::vector<std::uint32_t> isi_k;    ///< burst ISI decoder: run length
  aligned_vector<std::uint32_t> fired;  ///< fire kernels' output: slots
  aligned_vector<std::uint32_t> canon;  ///< canonical_fired() output
  std::vector<std::uint32_t> bucket;    ///< its per-channel counts
  AccumLayout layout;  ///< bind()'s syn.accum_layout()
  bool identity = true;  ///< slot j holds canonical neuron j
  Divisor by_rows;       ///< slot -> spatial index (transposed layouts)

  /// Binds the state to `syn` for one layer or readout run: caches its
  /// accumulator layout, zeroes out_size() potentials and sizes the fired
  /// and canonical-order scratch (all recycling capacity).
  void bind(const SynapseTopology& syn) {
    const std::size_t n = syn.out_size();
    layout = syn.accum_layout();
    // A transposed layout with one row or one column is the identity.
    identity = !layout.transposed || layout.rows == 1 || layout.cols == 1;
    if (!identity) {
      by_rows = Divisor(static_cast<std::uint32_t>(layout.rows));
      canon.resize(n);
      bucket.resize(layout.rows);
    }
    u.assign(n, 0.0f);
    fired.resize(n);
  }

  /// The `nf` ascending fired slots in `fired` as ascending canonical
  /// neuron ids. Identity layouts return `fired` itself. A transposed
  /// {spatial, channel} layout has slot s * rows + c for neuron c * cols +
  /// s, so ascending slots are ascending (s, c). One stable bucket pass
  /// over the channel c turns them into ascending (c, s), i.e. ascending
  /// ids: channel c's ids go to canon[c * cols ..] in arrival order, then
  /// the channel runs are packed to the front. The spatial index comes
  /// from a multiply-high, not a division.
  const std::uint32_t* canonical_fired(std::size_t nf) {
    if (identity) {
      return fired.data();
    }
    const auto rows = static_cast<std::uint32_t>(layout.rows);
    const auto cols = static_cast<std::uint32_t>(layout.cols);
    const std::uint32_t* slots = fired.data();
    std::uint32_t* ids = canon.data();
    std::uint32_t* count = bucket.data();
    std::fill(bucket.begin(), bucket.end(), 0u);
    for (std::size_t f = 0; f < nf; ++f) {
      const std::uint32_t s = by_rows.quotient(slots[f]);
      const std::uint32_t c = slots[f] - s * rows;
      const std::uint32_t run = c * cols;
      ids[run + count[c]++] = run + s;
    }
    // Channel c's run starts at c * cols >= the packed end, so each run
    // moves down (or stays put); memmove allows the overlap.
    std::uint32_t* end = ids + count[0];
    for (std::uint32_t c = 1; c < rows; ++c) {
      std::memmove(end, ids + static_cast<std::size_t>(c) * cols,
                   count[c] * sizeof(std::uint32_t));
      end += count[c];
    }
    return ids;
  }

  /// Accumulator slot of canonical neuron `j` (the inverse map, for
  /// consumers that read a canonical neuron's potential once per layer,
  /// so a plain division serves).
  std::uint32_t slot_of(std::uint32_t j) const {
    if (identity) {
      return j;
    }
    const auto rows = static_cast<std::uint32_t>(layout.rows);
    const auto cols = static_cast<std::uint32_t>(layout.cols);
    return (j % cols) * rows + j / cols;
  }
};

/// Reusable scratch of one simulation thread. Members are public: the
/// workspace is a bag of buffers with a single owner at a time, not an
/// abstraction boundary. `cur`/`next` are the simulator's layer ping-pong
/// pair; the remaining members are leased by whichever scheme or noise
/// model is currently running a stage.
struct SimWorkspace {
  EventBuffer cur;        ///< spike train entering the current stage
  EventBuffer next;       ///< spike train the current stage emits
  EventSortScratch sort;  ///< counting-sort / noise keep-mask scratch

  // The SIMD-streamed buffers (encoder charge, burst counters, the firing
  // scan's output) are aligned_vectors so the dispatch-table kernels
  // (simd/kernels.h) never split cache lines.
  aligned_vector<float> acc;  ///< encoder charge accumulators

  aligned_vector<std::uint32_t> k;     ///< burst escalation counters
  aligned_vector<std::uint32_t> fired;  ///< threshold_fire kernel output

  /// Uninitialized fired-index scratch of capacity `n` for the
  /// threshold_fire kernel (recycles capacity; contents are overwritten by
  /// the kernel up to its returned count).
  std::uint32_t* fired_scratch(std::size_t n) {
    fired.resize(n);
    return fired.data();
  }

  /// Pre-encoding input-corruption scratch: execute_request() writes the
  /// noise::InputNoiseModel output here so a corrupted request allocates
  /// nothing once warm (grow-only, like everything else in the workspace).
  Tensor input_scratch;

  /// Stage state leased by run_layer_into/readout_into and simulate_into()'s
  /// stage-by-stage regime (strictly one stage in flight at a time, so one
  /// state suffices).
  StageState seq;

  /// Per-stage states for simulate_into()'s lockstep wavefront (index =
  /// stage); only an enabled DecisionPolicy ever grows this.
  /// unique_ptr for pointer/reference stability across pool growth; the
  /// pool only grows at a new high-water stage count, preserving the
  /// zero-allocation steady state.
  std::vector<std::unique_ptr<StageState>> stages;

  StageState& stage_state(std::size_t s) {
    while (stages.size() <= s) {
      stages.push_back(std::make_unique<StageState>());
    }
    return *stages[s];
  }
};

}  // namespace tsnn::snn
