// Tests for the flat EventBuffer spike-train representation: CSR bucketing,
// copies, in-place noise equivalence against the reference bucket loops
// (spike_test_util.h), and fixed-seed golden vectors captured from the
// pre-event-buffer implementation -- pinning that the rewrite is
// bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coding/registry.h"
#include "common/error.h"
#include "core/ttas.h"
#include "noise/deletion.h"
#include "noise/jitter.h"
#include "noise/noise.h"
#include "snn/event_buffer.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "snn/workspace.h"
#include "spike_test_util.h"

namespace tsnn::snn {
namespace {

using test::events_of;
using test::SpikeEvent;

/// The deterministic train the golden vectors below were captured from.
EventBuffer golden_input() {
  std::vector<std::pair<std::int32_t, std::uint32_t>> spikes;
  for (std::int32_t t = 0; t < 16; ++t) {
    for (std::uint32_t n = 0; n < 6; ++n) {
      if ((t * 7 + n * 3) % 5 < 2) {
        spikes.emplace_back(t, n);
      }
    }
  }
  return test::make_train(6, 16, spikes);
}

TEST(EventBuffer, PushFinalizeBucketsSortedInput) {
  EventBuffer buf;
  EventSortScratch scratch;
  buf.reset(4, 8);
  buf.push(1, 2);
  buf.push(1, 0);
  buf.push(5, 3);
  buf.finalize(scratch);
  EXPECT_EQ(buf.size(), 3u);
  ASSERT_EQ(buf.step_count(1), 2u);
  EXPECT_EQ(buf.step_begin(1)[0], 2u);  // emission order kept within a step
  EXPECT_EQ(buf.step_begin(1)[1], 0u);
  EXPECT_EQ(buf.step_count(5), 1u);
  EXPECT_EQ(buf.step_count(0), 0u);
}

TEST(EventBuffer, FinalizeCountingSortsUnsortedInputStably) {
  EventBuffer buf;
  EventSortScratch scratch;
  buf.reset(8, 4);
  // Neuron-major emission (the TTFS pattern): times out of order.
  buf.push(3, 0);
  buf.push(1, 1);
  buf.push(3, 2);
  buf.push(0, 3);
  buf.push(1, 4);
  buf.finalize(scratch);
  const std::vector<SpikeEvent> expected{
      {3, 0}, {1, 1}, {4, 1}, {0, 3}, {2, 3}};
  EXPECT_EQ(events_of(buf), expected);
  // Per-step spans agree with the flat view.
  EXPECT_EQ(buf.step_count(0), 1u);
  EXPECT_EQ(buf.step_count(1), 2u);
  EXPECT_EQ(buf.step_count(2), 0u);
  EXPECT_EQ(buf.step_count(3), 2u);
}

TEST(EventBuffer, PushValidatesBounds) {
  EventBuffer buf;
  buf.reset(2, 4);
  EXPECT_THROW(buf.push(4, 0), InvalidArgument);
  EXPECT_THROW(buf.push(-1, 0), InvalidArgument);
  EXPECT_THROW(buf.push(0, 2), InvalidArgument);
}

/// The single-event form push_step() must agree with.
void push_each(EventBuffer& buf, std::int32_t t,
               const std::vector<std::uint32_t>& ids) {
  for (const std::uint32_t id : ids) {
    buf.push(t, id);
  }
}

/// The flat, unfinalized event arrays.
std::vector<SpikeEvent> raw_events(const EventBuffer& buf) {
  std::vector<SpikeEvent> out;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    out.push_back(SpikeEvent{buf.neurons()[i], buf.times()[i]});
  }
  return out;
}

TEST(EventBuffer, PushStepMatchesSinglePushes) {
  using Step = std::pair<std::int32_t, std::vector<std::uint32_t>>;
  // Time-ordered (sort-free finalize) and out-of-order (counting sort)
  // sequences, with empty steps and repeated steps.
  const std::vector<std::vector<Step>> sequences{
      {{0, {1, 3}}, {1, {}}, {1, {4, 0, 2}}, {1, {5}}, {4, {2}}},
      {{3, {5, 0}}, {1, {1}}, {3, {2}}, {0, {4, 4}}, {2, {}}}};
  for (const auto& seq : sequences) {
    EventBuffer bulk;
    EventBuffer single;
    bulk.reset(6, 5);
    single.reset(6, 5);
    for (const auto& [t, ids] : seq) {
      bulk.push_step(t, ids.data(), ids.size());
      push_each(single, t, ids);
      ASSERT_EQ(raw_events(bulk), raw_events(single)) << "step " << t;
      EXPECT_EQ(bulk.finalized(), single.finalized());
    }
    // Same sorted_ bookkeeping: close_step accepts or rejects both alike.
    bool bulk_closed = true;
    bool single_closed = true;
    try {
      bulk.close_step();
    } catch (const InvalidArgument&) {
      bulk_closed = false;
    }
    try {
      single.close_step();
    } catch (const InvalidArgument&) {
      single_closed = false;
    }
    EXPECT_EQ(bulk_closed, single_closed);
    EventSortScratch scratch;
    bulk.finalize(scratch);
    single.finalize(scratch);
    EXPECT_EQ(events_of(bulk), events_of(single));
  }
}

TEST(EventBuffer, PushStepRejectsWhatPushRejects) {
  const std::vector<std::uint32_t> ok{0, 1};
  const std::vector<std::uint32_t> bad_id{0, 2, 1};  // 2 >= num_neurons
  const auto fresh = [] {
    EventBuffer buf;
    buf.reset(2, 4);
    buf.push(1, 1);
    buf.close_step();  // step 0 closed
    return buf;
  };
  struct Case {
    const char* what;
    std::int32_t t;
    const std::vector<std::uint32_t>* ids;
  };
  for (const Case& c : {Case{"past window", 4, &ok}, Case{"negative", -1, &ok},
                        Case{"closed step", 0, &ok},
                        Case{"neuron out of range", 2, &bad_id}}) {
    EventBuffer single = fresh();
    EXPECT_THROW(push_each(single, c.t, *c.ids), InvalidArgument) << c.what;
    EventBuffer bulk = fresh();
    const std::vector<SpikeEvent> before = raw_events(bulk);
    EXPECT_THROW(bulk.push_step(c.t, c.ids->data(), c.ids->size()),
                 InvalidArgument)
        << c.what;
    EXPECT_EQ(raw_events(bulk), before) << c.what << ": nothing appended";
  }
  // Zero events are a no-op, like a loop of zero push() calls.
  EventBuffer buf = fresh();
  EXPECT_NO_THROW(buf.push_step(9, nullptr, 0));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventBuffer, CopyPreservesEverything) {
  const EventBuffer in = golden_input();
  EventBuffer buf;
  buf.reset(2, 3);
  buf = in;  // copy-assignment into a buffer of another shape
  EXPECT_TRUE(buf.finalized());
  EXPECT_EQ(buf.size(), in.size());
  EXPECT_EQ(buf.num_neurons(), in.num_neurons());
  EXPECT_EQ(buf.window(), in.window());
  EXPECT_EQ(events_of(buf), events_of(in));
  for (std::size_t t = 0; t < in.window(); ++t) {
    EXPECT_EQ(buf.step_count(t), in.step_count(t)) << "step " << t;
  }
}

TEST(EventBuffer, ResetRecyclesCapacityAcrossShapes) {
  EventBuffer buf = golden_input();
  EventSortScratch scratch;
  buf.reset(3, 5);
  EXPECT_EQ(buf.size(), 0u);
  buf.push(4, 2);
  buf.finalize(scratch);
  EXPECT_EQ(buf.step_count(4), 1u);
}

TEST(EventBuffer, RemapTimesRebucketsStably) {
  EventBuffer buf;
  EventSortScratch scratch;
  buf.reset(4, 8);
  buf.push(2, 0);
  buf.push(2, 1);
  buf.push(6, 2);
  buf.finalize(scratch);
  // Map everything onto step 3; visit order must be preserved within it.
  buf.remap_times([](std::int32_t, std::uint32_t) { return 3; }, scratch);
  ASSERT_EQ(buf.step_count(3), 3u);
  EXPECT_EQ(buf.step_begin(3)[0], 0u);
  EXPECT_EQ(buf.step_begin(3)[1], 1u);
  EXPECT_EQ(buf.step_begin(3)[2], 2u);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(EventBuffer, RemapTimesRejectsOutOfWindowLeavesBufferIntact) {
  EventBuffer buf = golden_input();
  EventSortScratch scratch;
  const auto before = events_of(buf);
  // Every event moves one step (wrapping), except the last, which maps
  // past the window: the remap must throw before any time changes, leaving
  // times, offsets and the finalized state as they were.
  const std::size_t n = buf.size();
  std::size_t visited = 0;
  EXPECT_THROW(buf.remap_times(
                   [&](std::int32_t t, std::uint32_t) {
                     const auto window = static_cast<std::int32_t>(buf.window());
                     return ++visited == n ? window : (t + 1) % window;
                   },
                   scratch),
               InvalidArgument);
  EXPECT_EQ(visited, n);
  ASSERT_TRUE(buf.finalized());
  EXPECT_EQ(events_of(buf), before);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const auto t = static_cast<std::size_t>(buf.times()[i]);
    const std::size_t begin = static_cast<std::size_t>(buf.step_begin(t) - buf.neurons());
    EXPECT_GE(i, begin) << "event " << i << " outside its step";
    EXPECT_LT(i, begin + buf.step_count(t)) << "event " << i << " outside its step";
  }
  // A throwing callback is rejected the same way.
  EXPECT_THROW(buf.remap_times(
                   [](std::int32_t, std::uint32_t) -> std::int32_t {
                     throw InvalidArgument("callback failed");
                   },
                   scratch),
               InvalidArgument);
  EXPECT_EQ(events_of(buf), before);
}

// ---------------------------------------------------------------------------
// In-place noise vs the reference bucket loops: both must consume the RNG
// in the same order and produce identical spike trains for any fixed seed.

TEST(NoisePathEquivalence, DeletionJitterCompositeAgree) {
  const EventBuffer in = golden_input();
  const auto composite = noise::make_deletion_jitter(0.3, 2.0);
  for (const std::uint64_t seed : {1ull, 42ull, 0xBEEFull, 987654321ull}) {
    Rng rng_ref(seed);
    Rng rng(seed);
    EXPECT_EQ(events_of(test::corrupted(noise::DeletionNoise(0.4), in, rng)),
              events_of(test::reference_deletion(in, 0.4, rng_ref)))
        << "deletion seed " << seed;

    rng_ref = Rng(seed);
    rng = Rng(seed);
    EXPECT_EQ(events_of(test::corrupted(noise::JitterNoise(1.7), in, rng)),
              events_of(test::reference_jitter(in, 1.7, rng_ref)))
        << "jitter seed " << seed;

    rng_ref = Rng(seed);
    rng = Rng(seed);
    const EventBuffer ref = test::reference_jitter(
        test::reference_deletion(in, 0.3, rng_ref), 2.0, rng_ref);
    EXPECT_EQ(events_of(test::corrupted(*composite, in, rng)), events_of(ref))
        << composite->name() << " seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Golden fixed-seed vectors captured from the PR 2 (pre-event-buffer)
// implementation. These pin that the rewrite did not change the RNG draw
// order or the corruption semantics: the exact event sequences must
// reproduce forever (the Rng implements its own distributions, so draws
// are platform-stable).

std::vector<SpikeEvent> ev(std::initializer_list<std::pair<int, unsigned>> list) {
  std::vector<SpikeEvent> out;
  for (const auto& [t, n] : list) {
    out.push_back(SpikeEvent{static_cast<std::uint32_t>(n),
                             static_cast<std::int32_t>(t)});
  }
  return out;
}

TEST(NoiseGolden, DeletionP04Seed123) {
  const EventBuffer in = golden_input();
  Rng rng(123);
  const auto got = events_of(test::corrupted(noise::DeletionNoise(0.4), in, rng));
  const auto expected = ev({{0, 2}, {0, 5}, {2, 2}, {3, 0}, {3, 3}, {3, 5},
                            {4, 1}, {4, 4}, {5, 5}, {7, 2}, {7, 4}, {8, 5},
                            {10, 2}, {10, 5}, {11, 1}, {11, 3}, {12, 2},
                            {13, 3}, {13, 5}, {15, 0}, {15, 2}});
  EXPECT_EQ(got, expected);
}

TEST(NoiseGolden, JitterSigma15Seed321) {
  const EventBuffer in = golden_input();
  Rng rng(321);
  const auto got = events_of(test::corrupted(noise::JitterNoise(1.5), in, rng));
  const auto expected = ev(
      {{0, 2}, {0, 5}, {0, 4}, {2, 0}, {2, 1}, {2, 3}, {3, 2}, {3, 0},
       {3, 3}, {3, 4}, {4, 5}, {5, 1}, {5, 5}, {6, 0}, {6, 1}, {6, 2},
       {7, 2}, {7, 4}, {7, 0}, {7, 3}, {7, 5}, {8, 3}, {8, 2}, {8, 0},
       {9, 5}, {10, 1}, {10, 5}, {11, 4}, {11, 1}, {11, 2}, {11, 4},
       {12, 3}, {12, 0}, {13, 5}, {14, 3}, {15, 1}, {15, 4}, {15, 0},
       {15, 2}});
  EXPECT_EQ(got, expected);
}

TEST(NoiseGolden, CompositeP03S20Seed99) {
  const EventBuffer in = golden_input();
  std::vector<NoiseModelPtr> models;
  models.push_back(noise::make_deletion(0.3));
  models.push_back(noise::make_jitter(2.0));
  const noise::CompositeNoise composite(std::move(models));
  Rng rng(99);
  const auto got = events_of(test::corrupted(composite, in, rng));
  const auto expected = ev({{0, 0}, {0, 2}, {0, 5}, {1, 1}, {2, 3}, {2, 3},
                            {3, 1}, {3, 2}, {5, 1}, {6, 5}, {6, 5}, {6, 0},
                            {9, 3}, {9, 0}, {10, 5}, {11, 3}, {12, 1},
                            {12, 4}, {12, 4}, {14, 1}, {14, 0}, {15, 5},
                            {15, 2}});
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Golden simulator logits captured from the PR 2 implementation on a tiny
// fixed model: clean logits and noisy logits under a fixed stream. 1e-5
// relative tolerance absorbs libm variation across platforms; on the
// capture platform the match is bit-exact.

SnnModel golden_model() {
  SnnModel model(Shape{5});
  Tensor w1{Shape{4, 5}};
  for (std::size_t i = 0; i < 20; ++i) {
    w1[i] = 0.07f * static_cast<float>((i * 13) % 11) - 0.2f;
  }
  Tensor w2{Shape{3, 4}};
  for (std::size_t i = 0; i < 12; ++i) {
    w2[i] = 0.11f * static_cast<float>((i * 7) % 9) - 0.3f;
  }
  model.add_stage("h", std::make_unique<DenseTopology>(w1));
  model.add_stage("r", std::make_unique<DenseTopology>(w2));
  return model;
}

struct SchemeGolden {
  Coding coding;
  std::vector<float> clean;
  std::size_t clean_spikes;
  std::vector<float> noisy;
  std::size_t noisy_spikes;
};

TEST(SimulatorGolden, LogitsMatchPreRewriteCapture) {
  const SnnModel model = golden_model();
  const Tensor img{Shape{5}, {0.9f, 0.45f, 0.2f, 0.7f, 0.05f}};
  const std::vector<SchemeGolden> goldens{
      {Coding::kRate,
       {8.61200333f, 12.4400034f, 3.59599805f}, 231,
       {5.21200037f, 7.54399776f, 2.74799919f}, 168},
      {Coding::kPhase,
       {2.75643682f, 3.98877978f, 1.16521859f}, 291,
       {1.80970299f, 3.14774942f, 1.95665622f}, 228},
      {Coding::kBurst,
       {20.9360008f, 30.2639942f, 8.70399761f}, 246,
       {9.66400051f, 14.2839985f, 3.85599899f}, 174},
      {Coding::kTtfs,
       {0.389295906f, 0.560586095f, 0.164383575f}, 8,
       {0.312924981f, 0.466341138f, 0.213130966f}, 8},
      {Coding::kTtas,
       {0.389295906f, 0.560586154f, 0.16438356f}, 40,
       {0.152665257f, 0.249462023f, 0.102420419f}, 33},
  };
  for (const SchemeGolden& g : goldens) {
    const auto scheme = g.coding == Coding::kTtas ? core::make_ttas(5)
                                                  : coding::make_scheme(g.coding);
    const SimResult clean = simulate(SimRequest{&model, scheme.get()}, img);
    ASSERT_EQ(clean.logits.numel(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(clean.logits[i], g.clean[i], 1e-5 * std::abs(g.clean[i]))
          << coding_name(g.coding) << " clean logit " << i;
    }
    EXPECT_EQ(clean.total_spikes, g.clean_spikes) << coding_name(g.coding);

    Rng rng = Rng::for_stream(777, 3);
    const auto noise = noise::make_deletion_jitter(0.25, 1.0);
    const SimResult noisy =
        simulate(SimRequest{&model, scheme.get(), noise.get(), &rng}, img);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(noisy.logits[i], g.noisy[i], 1e-5 * std::abs(g.noisy[i]))
          << coding_name(g.coding) << " noisy logit " << i;
    }
    EXPECT_EQ(noisy.total_spikes, g.noisy_spikes) << coding_name(g.coding);
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse must not change results: a reused workspace + result
// produces the same outputs as fresh ones for every scheme.

TEST(SimulatorWorkspace, ReuseIsBitIdenticalToFresh) {
  const SnnModel model = golden_model();
  const Tensor img{Shape{5}, {0.9f, 0.45f, 0.2f, 0.7f, 0.05f}};
  const auto noise = noise::make_deletion_jitter(0.2, 0.8);
  SimWorkspace ws;
  SimResult reused;
  for (const Coding c : {Coding::kRate, Coding::kPhase, Coding::kBurst,
                         Coding::kTtfs, Coding::kTtas}) {
    const auto scheme =
        c == Coding::kTtas ? core::make_ttas(5) : coding::make_scheme(c);
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      Rng rng1 = Rng::for_stream(31337, stream);
      simulate_into(SimRequest{&model, scheme.get(), noise.get(), &rng1, &ws},
                    img, reused);
      Rng rng2 = Rng::for_stream(31337, stream);
      const SimResult fresh =
          simulate(SimRequest{&model, scheme.get(), noise.get(), &rng2}, img);
      EXPECT_EQ(reused.logits, fresh.logits)
          << coding_name(c) << " stream " << stream;
      EXPECT_EQ(reused.total_spikes, fresh.total_spikes);
      EXPECT_EQ(reused.layer_spikes, fresh.layer_spikes);
      EXPECT_EQ(reused.predicted_class, fresh.predicted_class);
    }
  }
}

}  // namespace
}  // namespace tsnn::snn
