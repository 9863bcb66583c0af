// Runtime-dispatched SIMD kernel layer.
//
// The hot inner loops of the simulator -- dense fan-out scatter, conv tap
// accumulate, the potential/threshold scan, burst coding's escalating
// firing scan, the in-place noise compaction and the jitter noise's
// Gaussian shifts -- plus the dense-drive
// matvec and the axpy building block are leaf functions behind a
// KernelDispatch table of function pointers, the FFmpeg DSP-table idiom:
// callers marshal their state into a plain KernelCtx view and invoke
// through kernels(), and the variant that runs (scalar reference, AVX2,
// AVX2+FMA) is chosen once at startup from cpu::allowed_features() -- so
// adding an ISA means adding leaf functions, never touching the class
// hierarchy.
//
// Exactness contract
// ------------------
// Every kernel except dense_matvec is BIT-EXACT against the scalar
// reference: the vector variants keep each destination slot's addition
// order (contributions land in batch order) and use separate multiply and
// add (no FMA contraction), so golden pins cannot move when the dispatch
// changes. dense_matvec vectorizes a dot-product reduction -- a different
// summation order (and FMA in the avx2+fma table), agreeing with the
// reference to ~1e-5 relative; it backs the dense-drive path, whose
// tolerance contract predates this layer (see SynapseTopology::propagate).
// jitter_shifts outputs integers: a vector table approximates the Gaussian
// in double precision and certifies each rounded integer against the exact
// path's (Ziv's rounding test), recomputing exactly what it cannot certify.
// The two fire scans (threshold_fire, burst_fire) are identity-only: they
// walk the accumulator at unit stride in its own slot order, soft-reset by
// one vector blend and left-pack the fired slots, with no branch per fired
// lane. Neurons are independent, so the scan order cannot change a value;
// the caller maps the ascending fired slots back to ascending neuron ids.
// The simd translation units are compiled with -ffp-contract=off so the
// "scalar" semantics stay scalar under any -march.
//
// Ctx buffers should honor kSimdAlign (common/aligned.h) -- the kernels use
// unaligned loads, so alignment is a performance guarantee, not a
// correctness requirement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tsnn::simd {

// ------------------------------------------------------------ ctx views ----

/// Dense fan-out scatter: for each spike i in batch order,
/// u[j] += mag[i] * wt[pre[i]*out + j] for all j. `wt` is the {in, out}
/// transposed weight copy (unit-stride rows). Every pre[i] < in has been
/// validated by the caller.
struct DenseScatterCtx {
  const float* wt = nullptr;
  const std::uint32_t* pre = nullptr;
  const float* mag = nullptr;
  std::size_t count = 0;  ///< spikes in the batch
  std::size_t out = 0;    ///< fan-out length per spike
  float* u = nullptr;     ///< out accumulators
};

/// Dense matvec: y[j] += dot(w[j*in ..], x) for all j -- the dense-drive /
/// apply_dense shape. Tolerance path (see file comment).
struct DenseMatvecCtx {
  const float* w = nullptr;  ///< {out, in} canonical weights
  const float* x = nullptr;  ///< gathered dense input, length in
  std::size_t in = 0;
  std::size_t out = 0;
  float* y = nullptr;
};

/// One valid kernel tap of a conv input spatial position: which output
/// spatial cell it feeds and which {ky, kx} weight it goes through.
/// (Shared with ConvTopology's precomputed CSR tap tables.)
struct ConvTap {
  std::uint32_t spatial;  ///< oy * out_w + ox
  std::uint32_t wofs;     ///< ky * kernel + kx
};

/// Conv tap accumulate into the transposed {spatial, channel} accumulator:
/// for each spike i (ic = pre[i]/in_hw, sp = pre[i]%in_hw), for each tap of
/// sp, u[tap.spatial*oc ..] += mag[i] * wt[(ic*k2 + tap.wofs)*oc ..] over
/// all oc channels. Taps of one spike touch distinct rows, so per-slot
/// addition order is spike order -- bit-exact by construction. How a table
/// finds ic and sp (a divide, or a channel cursor that follows the ids) is
/// its own business: any pre order is valid.
struct ConvTapCtx {
  const float* wt = nullptr;                  ///< {ic, k2, oc} weight copy
  const std::uint32_t* tap_offset = nullptr;  ///< in_hw + 1 CSR offsets
  const ConvTap* taps = nullptr;
  const std::uint32_t* pre = nullptr;
  const float* mag = nullptr;
  std::size_t count = 0;
  std::size_t in_hw = 0;  ///< input spatial extent (h*w)
  std::size_t k2 = 0;     ///< kernel*kernel
  std::size_t oc = 0;     ///< output channels (inner vector length)
  float* u = nullptr;     ///< {spatial, channel} accumulators
};

/// Potential/threshold scan over accumulator slots j = 0..n at unit stride:
/// records every j with u[j] >= threshold into `fired`, ascending, and
/// returns the fired count. When `subtract`, a firing slot is drained by
/// threshold in place (the rate/phase soft reset); otherwise u is untouched
/// (the TTFS/TTAS floor scan). The scan is identity-only: it sees slots,
/// not neurons, and a caller whose layout is not the identity restores
/// canonical neuron order afterwards (StageState::canonical_fired). Bit-
/// exact: each slot gets one compare and, when it fires, exactly one
/// subtraction, as in the per-neuron loop. `fired` needs capacity n and no
/// more: a vector table stores a whole 8-lane block at fired + f, and f <= j
/// for the block at j, so the store never passes fired + n.
struct ThresholdCtx {
  float* u = nullptr;
  std::size_t n = 0;
  float threshold = 0.0f;
  bool subtract = false;
  std::uint32_t* fired = nullptr;
};

/// Burst-coding firing scan over accumulator slots j = 0..n at unit stride.
/// Slot j's quantum is q[min(k[j], cap)]; when u[j] >= quantum the slot
/// fires -- u[j] is drained by the quantum, k[j] counts up and j is recorded
/// into `fired`, ascending -- otherwise k[j] resets to 0. Returns the fired
/// count. `q` holds 8 entries and cap <= 7, so one vector register carries
/// the whole table. Identity-only like ThresholdCtx: the counters are the
/// slots' private state, indexed like u. Bit-exact: one compare and at most
/// one subtraction per slot, exactly like the per-neuron escalation loop;
/// `fired` needs capacity n (see ThresholdCtx).
struct BurstFireCtx {
  float* u = nullptr;
  std::uint32_t* k = nullptr;  ///< escalation counters, one per slot
  std::size_t n = 0;
  const float* q = nullptr;    ///< 8 quanta: theta * g^min(e, cap)
  std::uint32_t cap = 0;       ///< largest quantum index used (<= 7)
  std::uint32_t* fired = nullptr;
};

/// Spike-jitter shifts from raw generator words: pair i is the two words
/// Rng::normal draws for one Box-Muller pair, words[2i] (u1) then
/// words[2i+1] (u2), and the kernel writes
///   shift[2i]     = lround(sigma * Rng::box_muller(...).first)
///   shift[2i + 1] = lround(sigma * Rng::box_muller(...).second)
/// -- exactly the integers lround(rng.normal(0, sigma)) gives for those two
/// draws. Returns how many pairs went through that exact expression; a
/// vector table computes the rest with its own approximation and keeps an
/// integer only when Ziv's rounding test certifies it (see
/// docs/ARCHITECTURE.md, "RNG draw-order compatibility guarantee").
struct JitterCtx {
  const std::uint64_t* words = nullptr;  ///< 2 * pairs raw words, draw order
  std::size_t pairs = 0;
  double sigma = 0.0;                    ///< finite, >= 0
  std::int64_t* shift = nullptr;         ///< 2 * pairs outputs
};

// ------------------------------------------------------- dispatch table ----

/// Tunables that ride on the dispatch table so they can differ per ISA.
struct KernelPolicy {
  /// propagate()'s scatter -> dense-drive crossover as a fraction of
  /// in_size (spike count at which one gathered matvec beats per-spike
  /// scatter). num/den instead of a float so the historical 3/4 stays
  /// exact. Overridable via TSNN_DENSE_CROSSOVER (percent, 0-100).
  std::uint32_t dense_crossover_num = 3;
  std::uint32_t dense_crossover_den = 4;

  /// Scatter -> dense-drive crossover for an `in_size`-wide layer.
  std::size_t dense_drive_threshold(std::size_t in_size) const {
    const std::size_t t = (in_size * dense_crossover_num) / dense_crossover_den;
    return t > 0 ? t : 1;
  }
};

/// Function-pointer table of one ISA variant. All pointers are always
/// populated (a variant may reuse the scalar leaf where vectorizing does
/// not pay).
struct KernelDispatch {
  const char* isa = "scalar";  ///< "scalar", "avx2", "avx2+fma"
  std::uint32_t features = 0;  ///< cpu::Feature bits this table requires
  KernelPolicy policy;

  void (*dense_scatter)(const DenseScatterCtx&) = nullptr;
  void (*dense_matvec)(const DenseMatvecCtx&) = nullptr;
  void (*conv_taps)(const ConvTapCtx&) = nullptr;
  std::size_t (*threshold_fire)(const ThresholdCtx&) = nullptr;
  std::size_t (*burst_fire)(const BurstFireCtx&) = nullptr;
  /// y[i] += a * x[i] for i in [0, n) -- elementwise, bit-exact.
  void (*axpy)(float* y, const float* x, float a, std::size_t n) = nullptr;
  /// Keep-mask stream compaction: dst[k++] = src[i] for every i in order
  /// with keep[i] != 0; returns k. dst may alias src when dst <= src (the
  /// in-place EventBuffer compaction). Bit-exact (it moves integers).
  std::size_t (*mask_compact)(const std::uint32_t* src,
                              const std::uint8_t* keep, std::size_t n,
                              std::uint32_t* dst) = nullptr;
  /// Gaussian spike-jitter shifts; bit-exact (see JitterCtx).
  std::size_t (*jitter_shifts)(const JitterCtx&) = nullptr;
};

/// The active table: the highest-priority registered table whose features
/// are allowed by cpu::allowed_features() (so TSNN_CPUFLAGS picks the
/// variant), resolved once on first use.
const KernelDispatch& kernels();

/// kernels().isa plus any policy overrides -- the provenance string benches
/// record next to their numbers.
std::string active_isa();

/// The scalar reference table (always available; the equivalence oracle).
const KernelDispatch& scalar_kernels();

/// Every registered table runnable on this host, best first. The
/// equivalence tests iterate this to cover all selectable variants.
std::vector<const KernelDispatch*> runnable_tables();

/// Table with the given isa name, or nullptr (includes tables the host
/// cannot run -- check features before invoking).
const KernelDispatch* find_table(const std::string& isa);

/// RAII override of the active table, for tests and per-ISA benchmarks.
/// Takes effect process-wide; do not overlap with concurrent simulations.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const KernelDispatch& table);
  ~ScopedKernelOverride();
  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const KernelDispatch* saved_;
};

}  // namespace tsnn::simd
