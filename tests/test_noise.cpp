// Tests for the spike-noise models: statistical invariants of deletion and
// jitter, composition, and device profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "noise/deletion.h"
#include "noise/device_profile.h"
#include "noise/jitter.h"
#include "noise/noise.h"
#include "snn/event_buffer.h"
#include "spike_test_util.h"

namespace tsnn::noise {
namespace {

using snn::EventBuffer;
using snn::test::corrupted;
using snn::test::events_of;
using snn::test::full_train;
using snn::test::make_train;

class DeletionSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeletionSweep, RemovesApproximatelyPFraction) {
  const double p = GetParam();
  const DeletionNoise noise(p);
  const EventBuffer in = full_train(50, 40);  // 2000 spikes
  Rng rng(77);
  const EventBuffer out = corrupted(noise, in, rng);
  const double kept = static_cast<double>(out.size()) /
                      static_cast<double>(in.size());
  EXPECT_NEAR(kept, 1.0 - p, 0.04) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, DeletionSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                           0.8, 0.9));

TEST(Deletion, NeverAddsOrMovesSpikes) {
  const DeletionNoise noise(0.5);
  const EventBuffer in = make_train(4, 10, {{2, 1}, {5, 3}, {7, 0}});
  Rng rng(3);
  const EventBuffer out = corrupted(noise, in, rng);
  // Every surviving event must exist in the input.
  const auto in_events = events_of(in);
  for (const auto& e : events_of(out)) {
    bool found = false;
    for (const auto& orig : in_events) {
      if (orig == e) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_LE(out.size(), in.size());
}

TEST(Deletion, ZeroAndOneAreExact) {
  const EventBuffer in = full_train(10, 10);
  Rng rng(5);
  EXPECT_EQ(corrupted(DeletionNoise(0.0), in, rng).size(), 100u);
  EXPECT_EQ(corrupted(DeletionNoise(1.0), in, rng).size(), 0u);
}

TEST(Deletion, RejectsInvalidP) {
  EXPECT_THROW(DeletionNoise(-0.1), InvalidArgument);
  EXPECT_THROW(DeletionNoise(1.1), InvalidArgument);
}

TEST(Deletion, NameDescribesP) {
  EXPECT_EQ(DeletionNoise(0.5).name(), "deletion(p=0.50)");
}

TEST(Jitter, PreservesSpikeCountExactly) {
  const JitterNoise noise(2.5);
  const EventBuffer in = full_train(20, 30);
  Rng rng(11);
  const EventBuffer out = corrupted(noise, in, rng);
  EXPECT_EQ(out.size(), in.size());
}

TEST(Jitter, PreservesPerNeuronCounts) {
  const JitterNoise noise(1.5);
  const EventBuffer in = make_train(5, 20, {{3, 2}, {8, 2}, {10, 4}});
  Rng rng(13);
  const std::vector<std::size_t> counts =
      snn::test::spike_counts(corrupted(noise, in, rng));
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(counts[0], 0u);
}

TEST(Jitter, ShiftMagnitudesFollowSigma) {
  const double sigma = 1.0;
  const JitterNoise noise(sigma);
  // Far from the boundary so clamping is negligible.
  const EventBuffer in = make_train(1, 200, {{100, 0}});
  Rng rng(17);
  double sum_sq = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const std::int32_t t = corrupted(noise, in, rng).times()[0];
    const double d = static_cast<double>(t) - 100.0;
    sum_sq += d * d;
  }
  // Quantized Gaussian variance ~ sigma^2 + 1/12 (rounding).
  EXPECT_NEAR(std::sqrt(sum_sq / trials), std::sqrt(sigma * sigma + 1.0 / 12.0), 0.1);
}

TEST(Jitter, ClampsIntoWindow) {
  const JitterNoise noise(50.0);  // extreme jitter
  const EventBuffer in = make_train(1, 10, {{0, 0}, {9, 0}});
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    // Nothing fell off the window.
    EXPECT_EQ(corrupted(noise, in, rng).size(), 2u);
  }
}

TEST(Jitter, ClampPilesMassAtWindowEdges) {
  // With sigma >> window, almost every shift clamps: the distribution must
  // collapse onto the boundary steps t=0 and t=T-1 (spikes never leave the
  // window, they pile up at its edges).
  const JitterNoise noise(200.0);
  const std::size_t window = 12;
  const EventBuffer in = make_train(1, window, {{6, 0}});  // mid-window
  Rng rng(29);
  std::size_t at_zero = 0;
  std::size_t at_last = 0;
  std::size_t elsewhere = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const EventBuffer out = corrupted(noise, in, rng);
    ASSERT_EQ(out.size(), 1u);
    const std::int32_t t = out.times()[0];
    if (t == 0) {
      ++at_zero;
    } else if (t == static_cast<std::int32_t>(window) - 1) {
      ++at_last;
    } else {
      ++elsewhere;
    }
  }
  // sigma=200 over a 12-step window: > 95% of shifts clamp, split evenly.
  EXPECT_NEAR(static_cast<double>(at_zero) / trials, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(at_last) / trials, 0.5, 0.05);
  EXPECT_LT(static_cast<double>(elsewhere) / trials, 0.05);
}

TEST(Deletion, PZeroIsExactIdentityAndDrawsNothing) {
  const DeletionNoise noise(0.0);
  const EventBuffer in = make_train(4, 10, {{2, 1}, {2, 3}, {7, 0}});
  Rng rng(31);
  // Events (including within-step order) are untouched...
  EXPECT_EQ(events_of(corrupted(noise, in, rng)), events_of(in));
  // ...and the rng was never consumed: the next draw matches a fresh rng.
  Rng fresh(31);
  EXPECT_EQ(rng(), fresh());
}

TEST(Deletion, POneDeletesEverySpike) {
  const DeletionNoise noise(1.0);
  const EventBuffer in = full_train(6, 9);
  Rng rng(37);
  const EventBuffer out = corrupted(noise, in, rng);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(out.num_neurons(), in.num_neurons());
  EXPECT_EQ(out.window(), in.window());
}

TEST(Jitter, ZeroSigmaIsIdentity) {
  const EventBuffer in = make_train(2, 5, {{3, 1}});
  Rng rng(23);
  EXPECT_EQ(events_of(corrupted(JitterNoise(0.0), in, rng)), events_of(in));
}

TEST(Jitter, RejectsNegativeSigma) {
  EXPECT_THROW(JitterNoise(-1.0), InvalidArgument);
}

TEST(Jitter, RejectsNonFiniteSigma) {
  EXPECT_THROW(JitterNoise(std::nan("")), InvalidArgument);
  EXPECT_THROW(JitterNoise(std::numeric_limits<double>::infinity()),
               InvalidArgument);
}

TEST(Composite, AppliesInOrder) {
  std::vector<snn::NoiseModelPtr> models;
  models.push_back(make_deletion(0.5));
  models.push_back(make_jitter(1.0));
  const CompositeNoise composite(std::move(models));
  const EventBuffer in = full_train(20, 20);
  Rng rng(29);
  const EventBuffer out = corrupted(composite, in, rng);
  EXPECT_LT(out.size(), in.size());
  EXPECT_NEAR(static_cast<double>(out.size()), 200.0, 60.0);
  EXPECT_NE(composite.name().find("deletion"), std::string::npos);
  EXPECT_NE(composite.name().find("jitter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CompositeNoise ordering contract (see the class comment in noise/noise.h):
// member order is significant, and stacks of any depth must match the
// reference loops chained in the same order.

snn::NoiseModelPtr make_composite(
    std::vector<snn::NoiseModelPtr> models) {
  return std::make_unique<CompositeNoise>(std::move(models));
}

TEST(CompositeOrdering, DeletionThenJitterDiffersFromJitterThenDeletion) {
  const EventBuffer in = full_train(12, 24);

  std::vector<snn::NoiseModelPtr> dj;
  dj.push_back(make_deletion(0.5));
  dj.push_back(make_jitter(2.0));
  std::vector<snn::NoiseModelPtr> jd;
  jd.push_back(make_jitter(2.0));
  jd.push_back(make_deletion(0.5));
  const CompositeNoise del_jit(std::move(dj));
  const CompositeNoise jit_del(std::move(jd));

  Rng rng_a(71);
  Rng rng_b(71);
  const auto a = events_of(corrupted(del_jit, in, rng_a));
  const auto b = events_of(corrupted(jit_del, in, rng_b));
  // Same seed, same members, opposite order: the corrupted trains differ --
  // the first stage changes both which events reach the second stage and
  // what the second stage draws from the shared rng.
  EXPECT_NE(a, b);
  // name() reports members in application order.
  const std::string dj_name = del_jit.name();
  const std::string jd_name = jit_del.name();
  EXPECT_LT(dj_name.find("deletion"), dj_name.find("jitter"));
  EXPECT_LT(jd_name.find("jitter"), jd_name.find("deletion"));
}

/// One member of a noise stack: deletion(p) or jitter(sigma).
struct StackMember {
  bool jitter;
  double value;
};

/// Applies the composite of `stack` in place and the reference loops
/// chained in the same order, with identical seeds; both must produce the
/// same train.
void expect_inplace_matches_reference(const std::vector<StackMember>& stack,
                                      std::uint64_t seed) {
  const EventBuffer in = full_train(10, 18);
  std::vector<snn::NoiseModelPtr> models;
  Rng rng_ref(seed);
  EventBuffer ref = in;
  for (const StackMember& m : stack) {
    if (m.jitter) {
      models.push_back(make_jitter(m.value));
      ref = snn::test::reference_jitter(ref, m.value, rng_ref);
    } else {
      models.push_back(make_deletion(m.value));
      ref = snn::test::reference_deletion(ref, m.value, rng_ref);
    }
  }
  const auto composite = make_composite(std::move(models));
  Rng rng(seed);
  EXPECT_EQ(events_of(corrupted(*composite, in, rng)), events_of(ref))
      << composite->name() << " seed " << seed;
}

TEST(CompositeOrdering, InplaceMatchesReferenceForDepth3Stacks) {
  for (const std::uint64_t seed : {7ull, 1234ull, 0xC0FFEEull}) {
    expect_inplace_matches_reference(
        {{false, 0.3}, {true, 1.5}, {false, 0.2}}, seed);
    expect_inplace_matches_reference(
        {{true, 1.0}, {false, 0.4}, {true, 0.5}, {false, 0.1}}, seed);
  }
}

TEST(CompositeOrdering, NestedCompositeMatchesFlatStack) {
  // composite[a + composite[b + c]] == composite[a + b + c]: composition is
  // associative because each member only sees the previous output and the
  // shared rng.
  const EventBuffer in = full_train(8, 16);
  std::vector<snn::NoiseModelPtr> inner;
  inner.push_back(make_jitter(1.2));
  inner.push_back(make_deletion(0.25));
  std::vector<snn::NoiseModelPtr> nested;
  nested.push_back(make_deletion(0.3));
  nested.push_back(make_composite(std::move(inner)));
  std::vector<snn::NoiseModelPtr> flat;
  flat.push_back(make_deletion(0.3));
  flat.push_back(make_jitter(1.2));
  flat.push_back(make_deletion(0.25));

  Rng rng_a(99);
  Rng rng_b(99);
  EXPECT_EQ(events_of(corrupted(*make_composite(std::move(nested)), in, rng_a)),
            events_of(corrupted(*make_composite(std::move(flat)), in, rng_b)));
}

TEST(Composite, FactoryHelper) {
  const auto n = make_deletion_jitter(0.2, 0.5);
  const EventBuffer in = full_train(5, 5);
  Rng rng(31);
  EXPECT_LE(corrupted(*n, in, rng).size(), 25u);
}

TEST(NoNoise, IsIdentity) {
  const NoNoise n;
  const EventBuffer in = make_train(2, 4, {{1, 0}});
  Rng rng(37);
  EXPECT_EQ(events_of(corrupted(n, in, rng)), events_of(in));
  EXPECT_EQ(n.name(), "clean");
}

TEST(Noise, DeterministicGivenSeed) {
  const DeletionNoise noise(0.5);
  const EventBuffer in = full_train(10, 10);
  Rng rng1(41);
  Rng rng2(41);
  EXPECT_EQ(events_of(corrupted(noise, in, rng1)),
            events_of(corrupted(noise, in, rng2)));
}

TEST(DeviceProfile, CatalogIsOrderedByHarshness) {
  const auto& catalog = device_catalog();
  ASSERT_GE(catalog.size(), 3u);
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_GE(catalog[i].deletion_p, catalog[i - 1].deletion_p);
    EXPECT_GE(catalog[i].jitter_sigma, catalog[i - 1].jitter_sigma);
  }
}

TEST(DeviceProfile, FindAndMaterialize) {
  const DeviceProfile& d = find_device("memristive-early");
  EXPECT_GT(d.deletion_p, 0.0);
  const auto noise = d.make_noise();
  const EventBuffer in = full_train(10, 10);
  Rng rng(43);
  EXPECT_LT(corrupted(*noise, in, rng).size(), 100u);
  EXPECT_THROW(find_device("no-such-device"), InvalidArgument);
}

TEST(DeviceProfile, CleanDeviceIsIdentity) {
  const DeviceProfile& d = find_device("digital-cmos");
  const auto noise = d.make_noise();
  const EventBuffer in = full_train(4, 4);
  Rng rng(47);
  EXPECT_EQ(corrupted(*noise, in, rng).size(), 16u);
}

}  // namespace
}  // namespace tsnn::noise
