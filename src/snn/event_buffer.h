// Flat spike-event buffer -- TSNN's one spike-train representation.
//
// TSNN spikes are pure events (neuron id, integer timestep). Everything a
// spike "carries" -- rate unit charge, phase weight, burst gain, exponential
// TTFS kernel value -- is computed by the *receiving* synapse from the
// arrival time and history (see coding_base.h). This mirrors physical
// neuromorphic links and is what makes the paper's noise effects emerge:
// deleting or time-shifting an event corrupts exactly the quantity the
// coding scheme relies on.
//
// An EventBuffer stores one layer's spike train as parallel SoA arrays
// (times[], neurons[]) bucketed by timestep through a CSR offset table:
// the events of step t occupy [offsets[t], offsets[t+1]) and, within a
// step, keep their emission order. The storage is three flat arrays whose
// capacity only ever grows, so a buffer owned by a reusable SimWorkspace
// performs zero heap allocations once warm -- the FFmpeg buffer-pool
// discipline applied to spike trains.
//
// Producers (coding schemes) push() events in any order -- or a whole
// step's fired list at once with push_step() -- and finalize(); if the
// pushes were already time-ordered (rate/phase/burst emit timestep-major)
// finalizing just builds the offset table, otherwise a stable counting
// sort re-buckets into caller-provided scratch.
// Consumers -- the simulator, decode(), analyses and figures -- read
// per-step spans (step/step_begin/step_count) or the flat arrays. Noise
// models mutate the buffer in place: remove_by_mask() compacts the stream
// and remap_times() re-buckets after rewriting times, all visiting events
// in time-major emission order -- the RNG draw-order contract that keeps
// fixed-seed corruption reproducible (golden vectors in
// tests/test_event_buffer.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"

namespace tsnn::snn {

/// Reusable scratch for EventBuffer::finalize's stable counting sort, plus
/// the noise models' keep-mask staging. Owned by SimWorkspace so
/// re-bucketing allocates nothing once warm; must not be shared across
/// threads. The scatter destinations are aligned_vectors because
/// finalize() swaps them into the buffer's own (aligned) storage.
struct EventSortScratch {
  std::vector<std::uint32_t> cursor;       ///< per-step scatter cursors
  aligned_vector<std::int32_t> times;      ///< scatter destination, swapped in
  aligned_vector<std::uint32_t> neurons;   ///< scatter destination, swapped in
  aligned_vector<std::uint8_t> keep;       ///< remove_by_mask() staging
};

/// Flat spike train: SoA (time, neuron) events with per-step CSR offsets.
class EventBuffer {
 public:
  EventBuffer() = default;

  /// Clears and re-dimensions the buffer, keeping allocated capacity.
  void reset(std::size_t num_neurons, std::size_t window);

  std::size_t num_neurons() const { return num_neurons_; }
  std::size_t window() const { return window_; }

  /// Total number of events.
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  /// Appends a spike of `neuron` at step `t` (bounds-checked). Any order
  /// is accepted; time-ordered appends make finalize() sort-free.
  void push(std::int32_t t, std::uint32_t neuron) {
    TSNN_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < window_,
                   "event time " << t << " outside window " << window_);
    TSNN_CHECK_MSG(static_cast<std::size_t>(t) >= closed_,
                   "event time " << t << " in already-closed step (closed "
                                 << closed_ << ")");
    TSNN_CHECK_MSG(neuron < num_neurons_,
                   "neuron " << neuron << " out of range " << num_neurons_);
    sorted_ = sorted_ && (times_.empty() || t >= times_.back());
    finalized_ = false;
    times_.push_back(t);
    neurons_.push_back(neuron);
  }

  /// Appends `n` spikes of step `t`, neurons ids[0..n) in that order: the
  /// same events, checks and ordering bookkeeping as n push(t, ids[i])
  /// calls, with the time checks made once -- the fire-list emitters'
  /// shape. A rejected call appends nothing; n == 0 is a no-op.
  void push_step(std::int32_t t, const std::uint32_t* ids, std::size_t n) {
    if (n == 0) {
      return;
    }
    TSNN_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < window_,
                   "event time " << t << " outside window " << window_);
    TSNN_CHECK_MSG(static_cast<std::size_t>(t) >= closed_,
                   "event time " << t << " in already-closed step (closed "
                                 << closed_ << ")");
    std::uint32_t top = 0;
    for (std::size_t i = 0; i < n; ++i) {
      top = ids[i] > top ? ids[i] : top;
    }
    TSNN_CHECK_MSG(top < num_neurons_,
                   "neuron " << top << " out of range " << num_neurons_);
    sorted_ = sorted_ && (times_.empty() || t >= times_.back());
    finalized_ = false;
    // Grow as n push_back()s would (capacity doubles from 1): a bulk
    // insert sizes to size + max(size, n), a different allocation
    // sequence that measurably raised the serving process's peak RSS.
    std::size_t cap = times_.capacity() > 0 ? times_.capacity() : 1;
    while (cap < times_.size() + n) {
      cap *= 2;
    }
    times_.reserve(cap);
    neurons_.reserve(cap);
    times_.insert(times_.end(), n, t);
    neurons_.insert(neurons_.end(), ids, ids + n);
  }

  /// Buckets the events by time (stable within a step) and builds the CSR
  /// offset table. Idempotent; required before per-step access.
  void finalize(EventSortScratch& scratch);
  bool finalized() const { return finalized_; }

  /// Incremental production for the simulator's lockstep wavefront:
  /// declares step `steps_closed()` complete, making it readable via
  /// step()/step_begin/step_count before the train is finalized. Requires
  /// time-ordered pushes (every scheme's layer loop emits timestep-major,
  /// so this holds by construction); once a step is closed, push() rejects
  /// events landing in it. finalize() still rebuilds the whole offset
  /// table, so a partially closed buffer finalizes to the exact same state
  /// as a batch-produced one.
  void close_step() {
    TSNN_CHECK_MSG(sorted_ && !finalized_,
                   "close_step requires time-ordered, unfinalized pushes");
    TSNN_CHECK_MSG(closed_ < window_, "all steps already closed");
    if (closed_ == 0) {
      offsets_.resize(window_ + 1);
      offsets_[0] = 0;
    }
    offsets_[closed_ + 1] = static_cast<std::uint32_t>(times_.size());
    ++closed_;
  }
  /// Number of leading steps readable on an unfinalized buffer.
  std::size_t steps_closed() const { return closed_; }

  /// One step's events as a pointer span.
  struct StepSpan {
    const std::uint32_t* ids;
    std::size_t count;
  };

  /// Events of step `t`, in emission order. Readable once the buffer is
  /// finalized, or -- for the simulator's wavefront consumers -- as soon
  /// as the producing loop has close_step()ed past `t`. The span form does
  /// the readable check once per step -- the hot loops' shape;
  /// step_begin/step_count are the piecemeal equivalents.
  StepSpan step(std::size_t t) const {
    check_step_readable(t);
    return {neurons_.data() + offsets_[t], offsets_[t + 1] - offsets_[t]};
  }
  const std::uint32_t* step_begin(std::size_t t) const {
    check_step_readable(t);
    return neurons_.data() + offsets_[t];
  }
  std::size_t step_count(std::size_t t) const {
    check_step_readable(t);
    return offsets_[t + 1] - offsets_[t];
  }

  /// Flat views over the finalized (time-major) event arrays.
  const std::int32_t* times() const { return times_.data(); }
  const std::uint32_t* neurons() const { return neurons_.data(); }

  /// In-place compaction: keeps exactly the events whose `keep[i]` byte is
  /// nonzero, where i indexes the finalized time-major event stream
  /// (size() entries). Callers whose predicate draws randomness
  /// pre-generate the mask in one serial pass, visiting events in
  /// time-major emission order (the RNG draw-order contract), and the
  /// compaction itself runs through the dispatch table's mask_compact
  /// kernel. Stays finalized.
  void remove_by_mask(const std::uint8_t* keep);

  /// In-place time rewrite: every event's time becomes
  /// `fn(time, neuron)` (must land in [0, window)), visiting events in
  /// time-major order, then re-buckets. Events that map to the same step
  /// keep their visit order (stable): within a step, events land in draw
  /// order. The new times are staged in `scratch` and checked before the
  /// buffer changes, so a rejected remap (an out-of-window time, or a throw
  /// from `fn`) leaves the buffer exactly as it was.
  template <typename Fn>
  void remap_times(Fn&& fn, EventSortScratch& scratch) {
    check_finalized();
    const std::size_t n = times_.size();
    scratch.times.resize(n);
    std::int32_t* staged = scratch.times.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t t = fn(times_[i], neurons_[i]);
      TSNN_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < window_,
                     "remapped time " << t << " outside window " << window_);
      staged[i] = t;
    }
    times_.swap(scratch.times);
    sorted_ = false;
    finalized_ = false;
    finalize(scratch);
  }

 private:
  void check_finalized() const {
    TSNN_CHECK_MSG(finalized_, "EventBuffer not finalized");
  }
  void check_step_readable(std::size_t t) const {
    TSNN_CHECK_MSG(finalized_ || t < closed_,
                   "EventBuffer step " << t << " not finalized or closed");
  }

  std::size_t num_neurons_ = 0;
  std::size_t window_ = 0;
  std::size_t closed_ = 0;  ///< leading steps closed by close_step()
  bool sorted_ = true;     ///< pushes so far are non-decreasing in time
  bool finalized_ = false;
  // Aligned so the propagation and compaction kernels stream whole cache
  // lines (see common/aligned.h).
  aligned_vector<std::int32_t> times_;
  aligned_vector<std::uint32_t> neurons_;
  aligned_vector<std::uint32_t> offsets_;  ///< window+1 entries once finalized
};

}  // namespace tsnn::snn
