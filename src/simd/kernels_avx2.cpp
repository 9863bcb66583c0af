// AVX2 kernel variants. Compiled with -mavx2 -mfma -ffp-contract=off (the
// only TU in the tree with vector ISA flags); dispatch only ever selects
// these tables when cpu::allowed_features() includes the bits, so no AVX2
// instruction executes on a host without them.
//
// Bit-exactness discipline (see simd/kernels.h): every kernel here except
// dense_matvec vectorizes across the fan-out dimension j -- independent
// destination slots -- so each slot still receives its contributions in
// batch order, as one mul and one add. No _mm256_fmadd_ps outside the
// avx2+fma dense_matvec, and -ffp-contract=off keeps the compiler from
// contracting the scalar tails. jitter_shifts is the one kernel that is
// exact by certification instead: its doubles are approximations, and only
// integers the rounding test proves equal to the exact path's leave it.
#include "simd/kernels_internal.h"

#if defined(TSNN_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <numbers>

#include "common/cpu.h"

namespace tsnn::simd {
namespace {

// ------------------------------------------------------- dense scatter ----

// Spikes are blocked four at a time so each 8-wide strip of u is loaded and
// stored once per four contributions instead of once per spike -- the scatter
// is u-traffic-bound at large fan-out. Within a strip the four contributions
// are added in spike order, so every u[j] sees the same addition sequence as
// the scalar loop.
void av_dense_scatter(const DenseScatterCtx& ctx) {
  const std::size_t out = ctx.out;
  std::size_t i = 0;
  for (; i + 4 <= ctx.count; i += 4) {
    const float* c0 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 0]) * out;
    const float* c1 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 1]) * out;
    const float* c2 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 2]) * out;
    const float* c3 = ctx.wt + static_cast<std::size_t>(ctx.pre[i + 3]) * out;
    const __m256 m0 = _mm256_set1_ps(ctx.mag[i + 0]);
    const __m256 m1 = _mm256_set1_ps(ctx.mag[i + 1]);
    const __m256 m2 = _mm256_set1_ps(ctx.mag[i + 2]);
    const __m256 m3 = _mm256_set1_ps(ctx.mag[i + 3]);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8) {
      __m256 u = _mm256_loadu_ps(ctx.u + j);
      u = _mm256_add_ps(u, _mm256_mul_ps(m0, _mm256_loadu_ps(c0 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m1, _mm256_loadu_ps(c1 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m2, _mm256_loadu_ps(c2 + j)));
      u = _mm256_add_ps(u, _mm256_mul_ps(m3, _mm256_loadu_ps(c3 + j)));
      _mm256_storeu_ps(ctx.u + j, u);
    }
    for (; j < out; ++j) {
      float u = ctx.u[j];
      u += ctx.mag[i + 0] * c0[j];
      u += ctx.mag[i + 1] * c1[j];
      u += ctx.mag[i + 2] * c2[j];
      u += ctx.mag[i + 3] * c3[j];
      ctx.u[j] = u;
    }
  }
  for (; i < ctx.count; ++i) {
    const float* col = ctx.wt + static_cast<std::size_t>(ctx.pre[i]) * out;
    const __m256 m = _mm256_set1_ps(ctx.mag[i]);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8) {
      const __m256 u = _mm256_loadu_ps(ctx.u + j);
      const __m256 w = _mm256_loadu_ps(col + j);
      _mm256_storeu_ps(ctx.u + j, _mm256_add_ps(u, _mm256_mul_ps(m, w)));
    }
    for (; j < out; ++j) {
      ctx.u[j] += ctx.mag[i] * col[j];
    }
  }
}

// -------------------------------------------------------- dense matvec ----

float hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Tolerance path: the dot product is reduced 8 lanes at a time, a different
// summation order than the scalar reference (and single-rounded when kFma).
template <bool kUseFma>
void av_dense_matvec_impl(const DenseMatvecCtx& ctx) {
  for (std::size_t j = 0; j < ctx.out; ++j) {
    const float* row = ctx.w + j * ctx.in;
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= ctx.in; i += 8) {
      const __m256 w = _mm256_loadu_ps(row + i);
      const __m256 x = _mm256_loadu_ps(ctx.x + i);
      if constexpr (kUseFma) {
        acc = _mm256_fmadd_ps(w, x, acc);
      } else {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(w, x));
      }
    }
    float tail = 0.0f;
    for (; i < ctx.in; ++i) {
      tail += row[i] * ctx.x[i];
    }
    ctx.y[j] += hsum(acc) + tail;
  }
}

void av_dense_matvec(const DenseMatvecCtx& ctx) {
  av_dense_matvec_impl<false>(ctx);
}

void av_dense_matvec_fma(const DenseMatvecCtx& ctx) {
  av_dense_matvec_impl<true>(ctx);
}

// ----------------------------------------------------------- conv taps ----

// The input channel of each spike comes from a cursor that follows the ids
// instead of a divide: lo = ic * in_hw moves one channel at a time until
// lo <= pre < lo + in_hw. Within a step ids mostly ascend (every fire scan
// emits ascending ids), so the cursor moves at channel boundaries only; a
// jittered step whose ids restart walks it back. kVecs > 0 fixes the
// channel loop at kVecs vectors (oc == 8 * kVecs, no tail); kVecs == 0 is
// the generic loop. Only the widths the fast zoo runs (8 and 16) take a
// fixed count; there it beats the generic loop on every
// BM_ConvSpikePropagate<avx2+fma> row and in sweep_paper's images_per_s.
// Each slot still receives m * w in spike order, one mul and one add, so
// every variant matches sc_conv_taps bitwise.
template <std::size_t kVecs>
void av_conv_taps_impl(const ConvTapCtx& ctx) {
  const std::size_t oc = kVecs > 0 ? 8 * kVecs : ctx.oc;
  const std::size_t in_hw = ctx.in_hw;
  const std::size_t channel_stride = ctx.k2 * oc;
  std::size_t lo = 0;
  const float* wbase = ctx.wt;
  for (std::size_t i = 0; i < ctx.count; ++i) {
    const std::size_t pre = ctx.pre[i];
    while (pre >= lo + in_hw) {
      lo += in_hw;
      wbase += channel_stride;
    }
    while (pre < lo) {
      lo -= in_hw;
      wbase -= channel_stride;
    }
    const std::size_t sp = pre - lo;
    const __m256 mv = _mm256_set1_ps(ctx.mag[i]);
    const float m = ctx.mag[i];
    const std::uint32_t end = ctx.tap_offset[sp + 1];
    for (std::uint32_t t = ctx.tap_offset[sp]; t < end; ++t) {
      const ConvTap tap = ctx.taps[t];
      float* urow = ctx.u + static_cast<std::size_t>(tap.spatial) * oc;
      const float* wrow = wbase + static_cast<std::size_t>(tap.wofs) * oc;
      if constexpr (kVecs > 0) {
        for (std::size_t c = 0; c < 8 * kVecs; c += 8) {
          const __m256 u = _mm256_loadu_ps(urow + c);
          const __m256 w = _mm256_loadu_ps(wrow + c);
          _mm256_storeu_ps(urow + c, _mm256_add_ps(u, _mm256_mul_ps(mv, w)));
        }
      } else {
        std::size_t c = 0;
        for (; c + 8 <= oc; c += 8) {
          const __m256 u = _mm256_loadu_ps(urow + c);
          const __m256 w = _mm256_loadu_ps(wrow + c);
          _mm256_storeu_ps(urow + c, _mm256_add_ps(u, _mm256_mul_ps(mv, w)));
        }
        for (; c < oc; ++c) {
          urow[c] += m * wrow[c];
        }
      }
    }
  }
}

void av_conv_taps(const ConvTapCtx& ctx) {
  switch (ctx.oc) {
    case 8: return av_conv_taps_impl<1>(ctx);
    case 16: return av_conv_taps_impl<2>(ctx);
    default: return av_conv_taps_impl<0>(ctx);
  }
}

// ---------------------------------------------------------- left-pack ----

// Left-pack via a 256-entry permutation LUT: an 8-lane mask indexes the
// lane order that gathers the selected lanes to the front. The stream
// compaction moves the selected elements with it; the fire scans move the
// lane numbers (plus the block base), which are the fired slots.
const std::array<std::array<std::uint8_t, 8>, 256>& compact_lut() {
  static const auto lut = [] {
    std::array<std::array<std::uint8_t, 8>, 256> t{};
    for (int mask = 0; mask < 256; ++mask) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if ((mask >> lane) & 1) {
          t[mask][out++] = static_cast<std::uint8_t>(lane);
        }
      }
    }
    return t;
  }();
  return lut;
}

/// Left-packs the slots j + b of the set bits b of `mask` to fired + f and
/// returns the new count. The whole 8-lane vector is stored; lanes past the
/// popcount are scratch the next block overwrites, and since f <= j the
/// store stays below fired + j + 8 -- capacity n suffices.
inline std::size_t pack_fired(const std::array<std::array<std::uint8_t, 8>, 256>& lut,
                              int mask, std::size_t j, std::uint32_t* fired,
                              std::size_t f) {
  const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(lut[mask].data())));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(fired + f),
      _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(j))));
  return f + static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
}

// ------------------------------------------------------ threshold scan ----

// Eight slots per iteration and no branch per fired lane: one compare, the
// soft reset as a blend of v - theta into the fired lanes (a fired slot gets
// exactly one subtraction, an unfired one keeps v bit for bit), and a
// left-pack of the fired slots. Slots are independent, so the result
// equals the scalar scan's, fired list included.
template <bool kSubtract>
std::size_t av_threshold_scan(const ThresholdCtx& ctx) {
  const auto& lut = compact_lut();
  const __m256 th = _mm256_set1_ps(ctx.threshold);
  std::size_t fired = 0;
  std::size_t j = 0;
  for (; j + 8 <= ctx.n; j += 8) {
    const __m256 v = _mm256_loadu_ps(ctx.u + j);
    const __m256 ge = _mm256_cmp_ps(v, th, _CMP_GE_OQ);
    if constexpr (kSubtract) {
      _mm256_storeu_ps(ctx.u + j,
                       _mm256_blendv_ps(v, _mm256_sub_ps(v, th), ge));
    }
    fired = pack_fired(lut, _mm256_movemask_ps(ge), j, ctx.fired, fired);
  }
  for (; j < ctx.n; ++j) {
    const float v = ctx.u[j];
    if (v >= ctx.threshold) {
      if constexpr (kSubtract) {
        ctx.u[j] = v - ctx.threshold;
      }
      ctx.fired[fired++] = static_cast<std::uint32_t>(j);
    }
  }
  return fired;
}

std::size_t av_threshold_fire(const ThresholdCtx& ctx) {
  return ctx.subtract ? av_threshold_scan<true>(ctx)
                      : av_threshold_scan<false>(ctx);
}

// ---------------------------------------------------------- burst fire ----

// Eight slots per iteration, branch-free like av_threshold_scan: the quanta
// come out of the one-register table by a lane permute on min(k, cap), the
// compare is the scalar >=, k = fired ? k + 1 : 0 is (k - mask) & mask on
// the all-ones compare mask, the drain is a blend of v - quantum, and the
// fired slots are left-packed.
std::size_t av_burst_fire(const BurstFireCtx& ctx) {
  const auto& lut = compact_lut();
  const __m256 table = _mm256_loadu_ps(ctx.q);
  const __m256i cap = _mm256_set1_epi32(static_cast<int>(ctx.cap));
  std::size_t fired = 0;
  std::size_t j = 0;
  for (; j + 8 <= ctx.n; j += 8) {
    const __m256 v = _mm256_loadu_ps(ctx.u + j);
    auto* kp = reinterpret_cast<__m256i*>(ctx.k + j);
    const __m256i k = _mm256_loadu_si256(kp);
    const __m256 quantum =
        _mm256_permutevar8x32_ps(table, _mm256_min_epu32(k, cap));
    const __m256 ge = _mm256_cmp_ps(v, quantum, _CMP_GE_OQ);
    const __m256i on = _mm256_castps_si256(ge);
    _mm256_storeu_si256(kp, _mm256_and_si256(_mm256_sub_epi32(k, on), on));
    _mm256_storeu_ps(ctx.u + j,
                     _mm256_blendv_ps(v, _mm256_sub_ps(v, quantum), ge));
    fired = pack_fired(lut, _mm256_movemask_ps(ge), j, ctx.fired, fired);
  }
  for (; j < ctx.n; ++j) {
    const float quantum = ctx.q[ctx.k[j] < ctx.cap ? ctx.k[j] : ctx.cap];
    const float v = ctx.u[j];
    if (v >= quantum) {
      ctx.u[j] = v - quantum;
      ++ctx.k[j];
      ctx.fired[fired++] = static_cast<std::uint32_t>(j);
    } else {
      ctx.k[j] = 0;
    }
  }
  return fired;
}

// ---------------------------------------------------------------- axpy ----

void av_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256 xv = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
  }
  for (; i < n; ++i) {
    y[i] += a * x[i];
  }
}

// -------------------------------------------------------- mask compact ----

// Keep-mask compaction on the left-pack LUT: the keep-byte movemask picks
// the lane order, and the whole 8-lane block is stored at dst + k
// (popcount advances k, the extra lanes are overwritten by the next
// block). In-place safe for dst <= src: the store at dst + k never passes
// the next load at src + i + 8.
std::size_t av_mask_compact(const std::uint32_t* src, const std::uint8_t* keep,
                            std::size_t n, std::uint32_t* dst) {
  const auto& lut = compact_lut();
  const __m128i zero = _mm_setzero_si128();
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i kb = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(keep + i));
    const int drop = _mm_movemask_epi8(_mm_cmpeq_epi8(kb, zero)) & 0xFF;
    const int mask = drop ^ 0xFF;
    const __m256i lanes = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(lut[mask].data())));
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k),
                        _mm256_permutevar8x32_epi32(v, lanes));
    k += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    if (keep[i] != 0) {
      dst[k++] = src[i];
    }
  }
  return k;
}

// ------------------------------------------------------- jitter shifts ----

// Four Box-Muller pairs per iteration in double precision, with a
// self-contained log, sqrt and sincos (no libm, no libmvec):
//   log u1    exponent/mantissa split, log m = 2 atanh((m-1)/(m+1)) as an
//             odd series through s^19 for m in [sqrt(1/2), sqrt(2)];
//   sqrt      _mm256_sqrt_pd (correctly rounded);
//   sincos    theta = 2 pi u2 as the scalar path computes it, a three-part
//             Cody-Waite reduction by pi/2 and Taylor polynomials through
//             y^15 (sin) and y^16 (cos) on |y| <= pi/4.
// Their combined error in v = sigma r cos|sin theta against the exact
// path's value is below eps = 2^-46 * sigma r (bound and measurement in
// docs/ARCHITECTURE.md). Ziv's rounding test keeps lround(v) only when v is
// more than delta = 2^-36 * sigma r + 2^-40 from a half-integer, so the
// exact value rounds the same way; every other pair -- and any pair with
// u1 == 0 (the 1e-300 clamp) or sigma r >= 2^30 -- is recomputed by the
// exact scalar path, as are the last 1-3 pairs of a block. The avx2 table
// evaluates the polynomials with mul+add, the avx2+fma table with FMA; the
// bound covers both.

template <bool kFma>
inline __m256d madd(__m256d a, __m256d b, __m256d c) {
  if constexpr (kFma) {
    return _mm256_fmadd_pd(a, b, c);
  } else {
    return _mm256_add_pd(_mm256_mul_pd(a, b), c);
  }
}

/// Exact uint64 -> double for values below 2^53: the high 21 and low 32
/// bits each go through the 2^52 mantissa trick, and their sum is exact.
inline __m256d u53_to_pd(__m256i x) {
  const __m256i two52_bits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFFFFFFLL)), two52_bits)),
      two52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(x, 32), two52_bits)),
      two52);
  return _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)), lo);
}

/// Natural log of x in [2^-53, 1).
template <bool kFma>
inline __m256d log_unit(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256d m1 = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FF0000000000000LL)));  // mantissa in [1, 2)
  const __m256d big =
      _mm256_cmp_pd(m1, _mm256_set1_pd(1.4142135623730951), _CMP_GT_OQ);
  const __m256d m =
      _mm256_blendv_pd(m1, _mm256_mul_pd(m1, _mm256_set1_pd(0.5)), big);
  // Biased exponent as a double via the 2^52 trick, then unbias; a halved
  // mantissa moves one unit into the exponent.
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(bits, 52),
                          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52 + 1023.0));
  e = _mm256_add_pd(e, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d w = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(1.0 / 19);
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 17));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 15));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 13));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 11));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 9));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 7));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 5));
  p = madd<kFma>(p, w, _mm256_set1_pd(1.0 / 3));
  const __m256d two_s = _mm256_add_pd(s, s);
  const __m256d log_m = madd<kFma>(_mm256_mul_pd(two_s, w), p, two_s);
  return madd<kFma>(e, _mm256_set1_pd(0.6931471805599453), log_m);
}

/// sin and cos of theta in [0, 2 pi].
template <bool kFma>
inline void sincos_turn(__m256d theta, __m256d& sin_out, __m256d& cos_out) {
  // q = nearest integer to theta / (pi/2), as a double and as an int64.
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  const __m256d t = _mm256_add_pd(
      _mm256_mul_pd(theta, _mm256_set1_pd(0.6366197723675814)), shifter);
  const __m256d q = _mm256_sub_pd(t, shifter);
  const __m256i qi = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                      _mm256_castpd_si256(shifter));
  // Cody-Waite: the first two parts of pi/2 carry 22 bits each, so q * part
  // is exact for q <= 4; the parts sum to pi/2 within 1e-31.
  __m256d y = _mm256_sub_pd(theta, _mm256_mul_pd(q, _mm256_set1_pd(0x1.921fb4p+0)));
  y = _mm256_sub_pd(y, _mm256_mul_pd(q, _mm256_set1_pd(0x1.4442dp-24)));
  y = _mm256_sub_pd(y, _mm256_mul_pd(q, _mm256_set1_pd(0x1.8469898cc517p-48)));
  const __m256d z = _mm256_mul_pd(y, y);
  __m256d ps = _mm256_set1_pd(-1.0 / 1307674368000.0);
  ps = madd<kFma>(ps, z, _mm256_set1_pd(1.0 / 6227020800.0));
  ps = madd<kFma>(ps, z, _mm256_set1_pd(-1.0 / 39916800.0));
  ps = madd<kFma>(ps, z, _mm256_set1_pd(1.0 / 362880.0));
  ps = madd<kFma>(ps, z, _mm256_set1_pd(-1.0 / 5040.0));
  ps = madd<kFma>(ps, z, _mm256_set1_pd(1.0 / 120.0));
  ps = madd<kFma>(ps, z, _mm256_set1_pd(-1.0 / 6.0));
  const __m256d sin_y = madd<kFma>(_mm256_mul_pd(y, z), ps, y);
  __m256d pc = _mm256_set1_pd(1.0 / 20922789888000.0);
  pc = madd<kFma>(pc, z, _mm256_set1_pd(-1.0 / 87178291200.0));
  pc = madd<kFma>(pc, z, _mm256_set1_pd(1.0 / 479001600.0));
  pc = madd<kFma>(pc, z, _mm256_set1_pd(-1.0 / 3628800.0));
  pc = madd<kFma>(pc, z, _mm256_set1_pd(1.0 / 40320.0));
  pc = madd<kFma>(pc, z, _mm256_set1_pd(-1.0 / 720.0));
  pc = madd<kFma>(pc, z, _mm256_set1_pd(1.0 / 24.0));
  const __m256d cos_y = madd<kFma>(
      _mm256_mul_pd(z, z), pc,
      _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(z, _mm256_set1_pd(0.5))));
  // Quadrant q: odd q swaps sin and cos; sin flips sign when q & 2, cos
  // when (q + 1) & 2.
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(qi, 63));
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d sin_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(qi, two), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(qi, _mm256_set1_epi64x(1)), two), 62));
  sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_y, cos_y, swap), sin_sign);
  cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_y, sin_y, swap), cos_sign);
}

/// Nearest integer of v as int64 lanes, and in `ok` (ANDed) whether v is
/// more than delta from a half-integer. h = v - floor(v) is exact for
/// |v| >= 1/2 and within 2^-54 otherwise, far below delta's 2^-40 floor.
inline __m256i round_certified(__m256d v, __m256d delta, __m256d& ok) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d fl = _mm256_round_pd(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m256d h = _mm256_sub_pd(v, fl);
  const __m256d dist =
      _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(h, half));
  ok = _mm256_and_pd(ok, _mm256_cmp_pd(dist, delta, _CMP_GT_OQ));
  const __m256d up = _mm256_and_pd(_mm256_cmp_pd(h, half, _CMP_GT_OQ),
                                   _mm256_set1_pd(1.0));
  // Integral doubles below 2^51 in magnitude -> int64 via the 1.5 * 2^52
  // shifter.
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  return _mm256_sub_epi64(
      _mm256_castpd_si256(_mm256_add_pd(_mm256_add_pd(fl, up), shifter)),
      _mm256_castpd_si256(shifter));
}

/// Four pairs: words w[0..8) in draw order, shifts into out[0..8). Returns
/// the 4-bit mask of pairs whose out entries are not certified.
template <bool kFma>
int jitter4(const std::uint64_t* w, double sigma, std::int64_t* out) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4));
  const __m256i x1 =
      _mm256_srli_epi64(_mm256_permute4x64_epi64(_mm256_unpacklo_epi64(a, b), 0xD8), 11);
  const __m256i x2 =
      _mm256_srli_epi64(_mm256_permute4x64_epi64(_mm256_unpackhi_epi64(a, b), 0xD8), 11);
  const __m256d unit = _mm256_set1_pd(0x1.0p-53);
  const __m256d u1 = _mm256_mul_pd(u53_to_pd(x1), unit);
  const __m256d u2 = _mm256_mul_pd(u53_to_pd(x2), unit);
  const __m256d r = _mm256_sqrt_pd(
      _mm256_mul_pd(log_unit<kFma>(u1), _mm256_set1_pd(-2.0)));
  __m256d sin_t;
  __m256d cos_t;
  sincos_turn<kFma>(
      _mm256_mul_pd(_mm256_set1_pd(2.0 * std::numbers::pi), u2), sin_t, cos_t);
  const __m256d sr = _mm256_mul_pd(_mm256_set1_pd(sigma), r);
  const __m256d delta =
      madd<kFma>(sr, _mm256_set1_pd(0x1.0p-36), _mm256_set1_pd(0x1.0p-40));
  // u1 == 0 takes the clamp; sigma r >= 2^30 (or NaN) leaves the int64
  // trick's range and lround's -- both go to the exact path.
  __m256d ok = _mm256_andnot_pd(
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(x1, _mm256_setzero_si256())),
      _mm256_cmp_pd(sr, _mm256_set1_pd(0x1.0p30), _CMP_LT_OQ));
  const __m256i c = round_certified(_mm256_mul_pd(sr, cos_t), delta, ok);
  const __m256i s = round_certified(_mm256_mul_pd(sr, sin_t), delta, ok);
  const __m256i lo = _mm256_unpacklo_epi64(c, s);  // c0 s0 c2 s2
  const __m256i hi = _mm256_unpackhi_epi64(c, s);  // c1 s1 c3 s3
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
  return ~_mm256_movemask_pd(ok) & 0xF;
}

template <bool kFma>
std::size_t av_jitter_shifts(const JitterCtx& ctx) {
  std::size_t exact = 0;
  const auto redo = [&](std::size_t first, std::size_t count) {
    exact += sc_jitter_shifts(
        {ctx.words + 2 * first, count, ctx.sigma, ctx.shift + 2 * first});
  };
  std::size_t i = 0;
  for (; i + 4 <= ctx.pairs; i += 4) {
    int mask = jitter4<kFma>(ctx.words + 2 * i, ctx.sigma, ctx.shift + 2 * i);
    while (mask != 0) {
      const int b = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      redo(i + static_cast<std::size_t>(b), 1);
    }
  }
  // The last 1-3 pairs of a block take the exact path.
  redo(i, ctx.pairs - i);
  return exact;
}

KernelDispatch make_avx2_table(bool fma) {
  KernelDispatch t;
  t.isa = fma ? "avx2+fma" : "avx2";
  t.features = fma ? (cpu::kAvx2 | cpu::kFma) : cpu::kAvx2;
  t.dense_scatter = av_dense_scatter;
  t.dense_matvec = fma ? av_dense_matvec_fma : av_dense_matvec;
  t.conv_taps = av_conv_taps;
  t.threshold_fire = av_threshold_fire;
  t.burst_fire = av_burst_fire;
  t.axpy = av_axpy;
  t.mask_compact = av_mask_compact;
  t.jitter_shifts = fma ? av_jitter_shifts<true> : av_jitter_shifts<false>;
  return t;
}

}  // namespace

const KernelDispatch kAvx2Table = make_avx2_table(false);
const KernelDispatch kAvx2FmaTable = make_avx2_table(true);

}  // namespace tsnn::simd

#endif  // TSNN_SIMD_AVX2 && __AVX2__
