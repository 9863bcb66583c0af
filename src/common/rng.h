// Deterministic random number generation for TSNN.
//
// All stochastic components (dataset synthesis, weight init, dropout, noise
// injection) draw from tsnn::Rng so that experiments are reproducible from a
// single seed. Rng wraps xoshiro256** -- fast, high-quality, and independent
// of the standard library's unspecified distributions (we implement our own
// uniform/normal/bernoulli so results are bit-identical across platforms).
//
// Stream seeding contract
// -----------------------
// Batch work (notably snn::evaluate) must NOT thread one shared Rng& through
// its items: that makes every item's randomness depend on how many draws the
// previous items consumed, so results change with evaluation order, with
// subsetting, and with any attempt to parallelize. Instead, each independent
// work item i of a batch seeded with `base_seed` uses its own generator
//
//   Rng rng = Rng::for_stream(base_seed, i);
//
// for_stream mixes (base_seed, stream_index) through splitmix64 into a fresh
// xoshiro state, giving decorrelated streams that are a pure function of the
// pair -- image i sees the same noise no matter the thread count, the batch
// ordering, or which other images are evaluated alongside it.
#pragma once

#include <cstdint>
#include <vector>

namespace tsnn {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to standard
/// algorithms (e.g. std::shuffle), though TSNN code prefers the explicit
/// distribution members below for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; distinct seeds give independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Fills out[0..n) with the next n raw values: exactly n operator()
  /// calls, in order, without a call per word.
  void fill(result_type* out, std::size_t n);

  /// Standard normal via Box-Muller (deterministic, platform-independent).
  /// Draws come in pairs: a call with no cached value draws two raw words,
  /// returns box_muller(...).first and caches .second for the next call.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// One Box-Muller pair from the two raw words normal() draws for it, in
  /// draw order: u1 = (w1 >> 11) * 2^-53 (clamped to 1e-300 when zero),
  /// u2 = (w2 >> 11) * 2^-53, r = sqrt(-2 log u1), theta = 2 pi u2.
  /// `first` = r cos theta is what normal() returns, `second` = r sin theta
  /// what it caches. The one compiled definition of that expression:
  /// normal() and the exact path of simd jitter_shifts both call it.
  struct NormalPair {
    double first;
    double second;
  };
  static NormalPair box_muller(result_type w1, result_type w2);

  /// True when the next normal() returns a cached value without drawing.
  bool has_cached_normal() const { return has_cached_normal_; }

  /// The raw-word form of bernoulli(p) for p in [0, 1]: bernoulli(p) draws
  /// one word w and returns exactly (w >> 11) < bernoulli_threshold(p),
  /// with threshold ceil(p * 2^53) (so p == 1 gives 2^53, always true).
  static std::uint64_t bernoulli_threshold(double p);

  /// Derives an independent child generator; useful for giving each
  /// subsystem its own stream that does not perturb the others.
  Rng split();

  /// Deterministic per-item stream: the generator for work item
  /// `stream_index` of a batch seeded with `base_seed`. Pure function of the
  /// pair, so parallel and serial evaluation see identical randomness (see
  /// the stream seeding contract above).
  static Rng for_stream(std::uint64_t base_seed, std::uint64_t stream_index);

  /// Fisher-Yates shuffle of `v` using this generator.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace tsnn
