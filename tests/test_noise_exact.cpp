// Exactness of the fast spike-noise draws on every runnable dispatch table.
//
// JitterNoise computes its Gaussian shifts from raw generator words through
// the jitter_shifts kernel, and DeletionNoise its keep mask from a raw-word
// compare. Both must reproduce, bit for bit, what per-event
// lround(rng.normal(0, sigma)) and rng.bernoulli(p) give on the same
// stream: the same words consumed, the same integers out, and the Rng's
// Box-Muller pair cache left as it would be. These tests hold the kernel
// to that over 10^7 draws per sigma, force its fallback (values within an
// ulp of a half-integer, the u1 == 0 clamp, out-of-range magnitudes), and
// check the cache across calls with odd event counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "noise/deletion.h"
#include "noise/input_noise.h"
#include "noise/jitter.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "spike_test_util.h"
#include "tensor/tensor.h"

namespace tsnn {
namespace {

using simd::JitterCtx;
using simd::KernelDispatch;
using snn::EventBuffer;
using snn::test::events_of;

constexpr double kSigmas[] = {0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 20.0};

bool is_scalar(const KernelDispatch& t) { return std::string(t.isa) == "scalar"; }

/// The exact shifts for `pairs` word pairs: the scalar definition, spelled
/// out against Rng::box_muller.
std::vector<std::int64_t> exact_shifts(const std::vector<std::uint64_t>& words,
                                       double sigma) {
  std::vector<std::int64_t> out(words.size());
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    const Rng::NormalPair z = Rng::box_muller(words[i], words[i + 1]);
    out[i] = std::lround(sigma * z.first);
    out[i + 1] = std::lround(sigma * z.second);
  }
  return out;
}

/// Runs `table`'s jitter_shifts over all of `words`; returns the shifts and
/// stores the exact-path pair count in `exact`.
std::vector<std::int64_t> table_shifts(const KernelDispatch& table,
                                       const std::vector<std::uint64_t>& words,
                                       double sigma, std::size_t& exact) {
  std::vector<std::int64_t> out(words.size(), 0x5A5A5A5A);
  exact = table.jitter_shifts(
      JitterCtx{words.data(), words.size() / 2, sigma, out.data()});
  return out;
}

TEST(JitterShifts, EveryTableMatchesNormalOverTenMillionDrawsPerSigma) {
  constexpr std::size_t kDraws = 10'000'000;
  constexpr std::size_t kChunkPairs = 1 << 14;
  const auto tables = simd::runnable_tables();
  std::vector<std::uint64_t> words(2 * kChunkPairs);
  std::vector<std::int64_t> want(2 * kChunkPairs);
  std::vector<std::int64_t> got(2 * kChunkPairs);
  for (const double sigma : kSigmas) {
    Rng ref(0x5EED0000 + static_cast<std::uint64_t>(sigma * 100));
    Rng gen = ref;
    std::vector<std::size_t> mismatches(tables.size(), 0);
    std::vector<std::size_t> exact_pairs(tables.size(), 0);
    for (std::size_t drawn = 0; drawn < kDraws; drawn += 2 * kChunkPairs) {
      gen.fill(words.data(), words.size());
      for (std::int64_t& w : want) {
        w = std::lround(ref.normal(0.0, sigma));
      }
      for (std::size_t k = 0; k < tables.size(); ++k) {
        exact_pairs[k] += tables[k]->jitter_shifts(
            JitterCtx{words.data(), kChunkPairs, sigma, got.data()});
        for (std::size_t i = 0; i < got.size(); ++i) {
          mismatches[k] += got[i] != want[i] ? 1 : 0;
        }
      }
    }
    // Same words consumed: the streams stay in lockstep.
    EXPECT_FALSE(ref.has_cached_normal());
    EXPECT_EQ(ref(), gen()) << "sigma " << sigma;
    for (std::size_t k = 0; k < tables.size(); ++k) {
      EXPECT_EQ(mismatches[k], 0u)
          << tables[k]->isa << " sigma " << sigma << " exact pairs "
          << exact_pairs[k];
      if (!is_scalar(*tables[k])) {
        // The certificate must do the work: at most a handful of the
        // 5 * 10^6 pairs may fall back to the exact path.
        EXPECT_LT(exact_pairs[k], 100u) << tables[k]->isa << " sigma " << sigma;
      }
    }
  }
}

/// A block of raw words and the sigma to run it at.
struct NearHalfCase {
  std::vector<std::uint64_t> words;
  double sigma;
};

TEST(JitterShifts, FallsBackWithinAnUlpOfHalfAndOnTheClamp) {
  Rng rng(2024);
  std::vector<NearHalfCase> cases;
  for (int trial = 0; trial < 24; ++trial) {
    // 7 pairs: one full vector and a 3-pair exact tail, so the crafted
    // pair is checked in both code paths as `slot` moves. Sigma is chosen
    // so that sigma * z lands within one ulp of +-0.5 or +-2.5.
    std::vector<std::uint64_t> words(14);
    rng.fill(words.data(), words.size());
    const std::size_t slot = static_cast<std::size_t>(trial) % 7;
    const bool use_sine = trial % 2 == 1;
    const Rng::NormalPair z = Rng::box_muller(words[2 * slot], words[2 * slot + 1]);
    const double zc = use_sine ? z.second : z.first;
    const double target = (trial % 3 == 0 ? 2.5 : 0.5) * (zc < 0 ? -1.0 : 1.0);
    const double base = target / zc;
    const double ulp = std::nextafter(std::fabs(target), 1e300) - std::fabs(target);
    for (int step = -2; step <= 2; ++step) {
      double sigma = base;
      for (int k = 0; k < std::abs(step); ++k) {
        sigma = std::nextafter(sigma, step < 0 ? 0.0 : 1e300);
      }
      if (std::fabs(sigma * zc - target) <= ulp) {
        cases.push_back({words, sigma});
      }
    }
  }
  ASSERT_GE(cases.size(), 48u) << "too few sigmas land within an ulp of .5";
  // u1 == 0: the word's top 53 bits are zero, so Box-Muller takes the
  // 1e-300 clamp (r = 37.2).
  for (const std::uint64_t zero_word : {0ULL, 0x7FFULL}) {
    std::vector<std::uint64_t> words(8);
    rng.fill(words.data(), words.size());
    words[2] = zero_word;
    cases.push_back({words, 1.5});
  }
  // sigma * r beyond the vector path's range.
  {
    std::vector<std::uint64_t> words(10);
    rng.fill(words.data(), words.size());
    cases.push_back({words, 1e9});
  }

  for (const KernelDispatch* table : simd::runnable_tables()) {
    std::size_t fallbacks = 0;
    for (const NearHalfCase& c : cases) {
      std::size_t exact = 0;
      const auto got = table_shifts(*table, c.words, c.sigma, exact);
      EXPECT_EQ(got, exact_shifts(c.words, c.sigma))
          << table->isa << " sigma " << c.sigma;
      if (is_scalar(*table)) {
        EXPECT_EQ(exact, c.words.size() / 2);
      } else {
        EXPECT_GE(exact, 1u) << table->isa << " sigma " << c.sigma;
      }
      fallbacks += exact;
    }
    EXPECT_GE(fallbacks, cases.size()) << table->isa;
  }
}

TEST(JitterShifts, EmptyBlockWritesNothing) {
  for (const KernelDispatch* table : simd::runnable_tables()) {
    std::int64_t sentinel = 77;
    EXPECT_EQ(table->jitter_shifts(JitterCtx{nullptr, 0, 2.0, &sentinel}), 0u);
    EXPECT_EQ(sentinel, 77);
  }
}

// ---------------------------------------------------------------------------
// JitterNoise and DeletionNoise through apply_inplace, per table.

class NoiseExact : public ::testing::TestWithParam<const KernelDispatch*> {
 protected:
  void SetUp() override { override_.emplace(*GetParam()); }
  void TearDown() override { override_.reset(); }

 private:
  std::optional<simd::ScopedKernelOverride> override_;
};

std::string table_name(
    const ::testing::TestParamInfo<const KernelDispatch*>& info) {
  std::string name = info.param->isa;
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

/// A finalized train of exactly `count` events at random (t, neuron).
EventBuffer random_train(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::int32_t, std::uint32_t>> spikes;
  for (std::size_t i = 0; i < count; ++i) {
    spikes.emplace_back(static_cast<std::int32_t>(rng.uniform_index(24)),
                        static_cast<std::uint32_t>(rng.uniform_index(40)));
  }
  return snn::test::make_train(40, 24, spikes);
}

/// Both generators in the same state: same cache flag, same next normal,
/// same next raw word.
void expect_same_stream(Rng a, Rng b) {
  EXPECT_EQ(a.has_cached_normal(), b.has_cached_normal());
  EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a(), b());
}

TEST_P(NoiseExact, JitterOddCountsAcrossCallsMatchReference) {
  // Counts straddle the 64-pair block: odd counts leave a sine cached that
  // the next call must consume first, scaled by its own sigma.
  const std::size_t counts[] = {1, 3, 2, 127, 128, 129, 131, 257, 5, 0, 1};
  const double sigmas[] = {1.5, 0.5, 4.0, 2.0, 20.0, 1.0, 0.25, 2.0, 3.0, 1.0, 2.0};
  Rng rng(31337);
  Rng rng_ref(31337);
  snn::EventSortScratch scratch;
  for (std::size_t k = 0; k < std::size(counts); ++k) {
    EventBuffer train = random_train(counts[k], 100 + k);
    const EventBuffer want = snn::test::reference_jitter(train, sigmas[k], rng_ref);
    noise::JitterNoise(sigmas[k]).apply_inplace(train, scratch, rng);
    EXPECT_EQ(events_of(train), events_of(want)) << "call " << k;
    EXPECT_EQ(rng.has_cached_normal(), rng_ref.has_cached_normal()) << "call " << k;
  }
  expect_same_stream(rng, rng_ref);
}

TEST_P(NoiseExact, InputGaussianNoiseThenJitterMatchesReference) {
  // 15 pixels: an odd number of Gaussian draws leaves a sine cached for the
  // spike jitter that follows on the same stream.
  Tensor image{Shape{3, 5}};
  for (std::size_t i = 0; i < image.numel(); ++i) {
    image[i] = static_cast<float>(i) / 15.0f;
  }
  const noise::GaussianInputNoise input_noise(0.1);
  for (const std::size_t count : {1u, 2u, 129u, 130u}) {
    Rng rng(555 + count);
    Rng rng_ref(555 + count);
    Tensor noisy;
    Tensor noisy_ref;
    input_noise.apply_into(image, noisy, rng);
    input_noise.apply_into(image, noisy_ref, rng_ref);
    ASSERT_TRUE(rng.has_cached_normal());
    EventBuffer train = random_train(count, count);
    const EventBuffer want = snn::test::reference_jitter(train, 1.5, rng_ref);
    snn::EventSortScratch scratch;
    noise::JitterNoise(1.5).apply_inplace(train, scratch, rng);
    EXPECT_EQ(events_of(train), events_of(want)) << "count " << count;
    expect_same_stream(rng, rng_ref);
  }
}

TEST_P(NoiseExact, CompositeJitterThenJitterMatchesReference) {
  std::vector<snn::NoiseModelPtr> stack;
  stack.push_back(noise::make_jitter(0.5));
  stack.push_back(noise::make_jitter(2.0));
  const noise::CompositeNoise composite(std::move(stack));
  for (const std::size_t count : {3u, 65u, 129u, 255u}) {
    Rng rng(808 + count);
    Rng rng_ref(808 + count);
    const EventBuffer train = random_train(count, 7 * count);
    EventBuffer want = snn::test::reference_jitter(train, 0.5, rng_ref);
    want = snn::test::reference_jitter(want, 2.0, rng_ref);
    EXPECT_EQ(events_of(snn::test::corrupted(composite, train, rng)),
              events_of(want))
        << "count " << count;
    expect_same_stream(rng, rng_ref);
  }
}

TEST_P(NoiseExact, DeletionMatchesBernoulliReferenceAtEdgeProbabilities) {
  const double ps[] = {0x1.0p-53, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53, 1.0};
  for (const double p : ps) {
    for (const std::size_t count : {1u, 255u, 256u, 257u, 1000u}) {
      Rng rng(99 + count);
      Rng rng_ref(99 + count);
      const EventBuffer train = random_train(count, count);
      EXPECT_EQ(events_of(snn::test::corrupted(noise::DeletionNoise(p), train, rng)),
                events_of(snn::test::reference_deletion(train, p, rng_ref)))
          << "p " << p << " count " << count;
      expect_same_stream(rng, rng_ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRunnableTables, NoiseExact,
                         ::testing::ValuesIn(simd::runnable_tables()),
                         table_name);

// ---------------------------------------------------------------------------
// The raw-word Bernoulli threshold.

TEST(BernoulliThreshold, BoundaryWordsMatchTheDoubleCompare) {
  const double ps[] = {0x1.0p-53, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53, 1.0,
                       0.1, 0x1.0p-1074};
  constexpr std::uint64_t kTop = (1ULL << 53) - 1;
  for (const double p : ps) {
    const std::uint64_t threshold = Rng::bernoulli_threshold(p);
    ASSERT_LE(threshold, 1ULL << 53) << p;
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, threshold - 1, threshold,
          threshold + 1, kTop}) {
      if (x > kTop) {
        continue;
      }
      const double u = static_cast<double>(x) * 0x1.0p-53;
      EXPECT_EQ(u < p, x < threshold) << "p " << p << " x " << x;
    }
  }
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), 1ULL << 53);
  EXPECT_THROW(Rng::bernoulli_threshold(1.5), InvalidArgument);
  EXPECT_THROW(Rng::bernoulli_threshold(std::nan("")), InvalidArgument);
}

TEST(BernoulliThreshold, RawWordCompareMatchesBernoulliOnTheStream) {
  const double ps[] = {0x1.0p-53, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53, 1.0};
  for (const double p : ps) {
    const std::uint64_t threshold = Rng::bernoulli_threshold(p);
    Rng a(4242);
    Rng b(4242);
    std::size_t mismatches = 0;
    for (int i = 0; i < 200'000; ++i) {
      mismatches += a.bernoulli(p) != ((b() >> 11) < threshold) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "p " << p;
  }
}

TEST(RngFill, DrawsTheSameWordsAsOperatorCall) {
  Rng a(17);
  Rng b(17);
  std::vector<std::uint64_t> words(1001);
  a.fill(words.data(), words.size());
  for (const std::uint64_t w : words) {
    ASSERT_EQ(w, b());
  }
  a.fill(words.data(), 0);
  EXPECT_EQ(a(), b());
}

TEST(RngBoxMuller, IsWhatNormalReturnsAndCaches) {
  Rng a(8);
  Rng b(8);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t w1 = b();
    const std::uint64_t w2 = b();
    const Rng::NormalPair z = Rng::box_muller(w1, w2);
    EXPECT_FALSE(a.has_cached_normal());
    EXPECT_EQ(a.normal(), z.first);
    EXPECT_TRUE(a.has_cached_normal());
    EXPECT_EQ(a.normal(), z.second);
  }
}

}  // namespace
}  // namespace tsnn
