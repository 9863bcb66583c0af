// Google-benchmark micro-kernels for TSNN's hot paths: conv/dense forward,
// batched spike propagation through SynapseTopology::propagate (the one
// spike entry point the simulator runs), the rate/phase and burst fire
// steps, spike
// encoding, and noise injection. These quantify the cost model behind the
// figure benches (event-driven cost ~ spikes x fanout, which is why TTFS
// simulations are ~10x cheaper than rate simulations).
//
// BM_ConvSpikePropagate has one named row per conv stage of the TSNN_FAST
// S-CIFAR10 zoo model (BM_ConvSpikePropagate/conv1a .. /conv2b), so each
// row lines up with perfbench's traced stage.*.<stage>.us span and times
// the conv_taps kernel at that stage's shape.
//
// BM_ThresholdFire and BM_BurstFire time one fire step at the zoo's conv1a
// and fc1 shapes: the slot-order scan plus the canonical reorder.
//
// The spike-propagation, fire and noise benches also register one
// variant per runnable SIMD dispatch table (e.g. BM_ConvSpikePropagate<scalar>/conv1a
// next to BM_ConvSpikePropagate<avx2+fma>/conv1a), so one run measures the
// vector speedup against the forced-scalar reference on identical batches.
// The active table's dense-drive crossover shows up as the
// "dense_crossover" counter on every propagate config, and the active ISA
// is stamped into the benchmark JSON context ("isa").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "coding/burst.h"
#include "coding/registry.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "dnn/conv2d.h"
#include "noise/noise.h"
#include "simd/kernels.h"
#include "snn/workspace.h"
#include "snn/topology.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace tsnn;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

Tensor random_activations(std::size_t n, std::uint64_t seed) {
  Tensor t{Shape{n}};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return t;
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  dnn::Conv2dSpec spec{.in_channels = channels, .out_channels = channels,
                       .kernel = 3, .stride = 1, .pad = 1, .use_bias = false};
  dnn::Conv2d conv("c", spec);
  conv.weight().value = random_tensor(conv.weight().value.shape(), 1);
  const Tensor x = random_tensor(Shape{channels, 16, 16}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(channels * channels * 9 * 256));
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_DenseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor w = random_tensor(Shape{n, n}, 3);
  const Tensor x = random_tensor(Shape{n}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matvec(w, x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DenseMatvec)->Arg(128)->Arg(512);

/// One timestep's batch: `count` distinct presynaptic neurons at uniform
/// magnitude (the rate/phase/TTFS shape).
snn::SpikeBatch make_batch(std::size_t in_size, std::size_t count,
                           std::uint64_t seed) {
  snn::SpikeBatch batch;
  Rng rng(seed);
  std::vector<bool> used(in_size, false);
  for (std::size_t i = 0; i < count; ++i) {
    auto pre = static_cast<std::uint32_t>(rng.uniform_index(in_size));
    while (used[pre]) {
      pre = (pre + 1) % static_cast<std::uint32_t>(in_size);
    }
    used[pre] = true;
    batch.add(pre, 0.4f);
  }
  return batch;
}

// ---- Spike propagation through the batched engine; dense args are
// ---- {layer size, spikes/step}.

void BM_DenseSpikePropagate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto spikes = static_cast<std::size_t>(state.range(1));
  snn::DenseTopology syn(random_tensor(Shape{n, n}, 11));
  const snn::SpikeBatch batch = make_batch(n, spikes, 12);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate(batch, u.data());  // build the transposed cache up front
  for (auto _ : state) {
    syn.propagate(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spikes * n));
  state.counters["dense_crossover"] =
      static_cast<double>(syn.dense_drive_threshold());
}
BENCHMARK(BM_DenseSpikePropagate)->Args({512, 64})->Args({512, 350});

/// Dense-drive regime: batch at full density, served by one apply_dense.
void BM_DenseSpikePropagateDenseDrive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  snn::DenseTopology syn(random_tensor(Shape{n, n}, 11));
  const snn::SpikeBatch batch = make_batch(n, n, 12);
  std::vector<float> u(syn.out_size(), 0.0f);
  for (auto _ : state) {
    syn.propagate(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
  state.counters["dense_crossover"] =
      static_cast<double>(syn.dense_drive_threshold());
}
BENCHMARK(BM_DenseSpikePropagateDenseDrive)->Arg(512);

/// One conv stage of the TSNN_FAST S-CIFAR10 zoo model (3x3 kernel,
/// stride 1, pad 1), named after its perfbench stage span.
struct ZooConv {
  const char* name;
  std::size_t in_ch;
  std::size_t out_ch;
  std::size_t hw;
};
constexpr ZooConv kZooConvs[] = {{"conv1a", 3, 8, 16},
                                 {"conv1b", 8, 8, 16},
                                 {"conv2a", 8, 16, 8},
                                 {"conv2b", 16, 16, 8}};

/// One timestep of a zoo conv stage: distinct spikes on 1/8 of its inputs
/// (traced conv1a fires on about 12% of its neuron-steps, and its output
/// is conv1b's input), below the dense-drive crossover, so the row times
/// the conv_taps kernel. Items are the exact multiply-adds, edge taps
/// included.
void BM_ConvSpikePropagate(benchmark::State& state, const ZooConv& shape) {
  snn::ConvTopology syn(
      random_tensor(Shape{shape.out_ch, shape.in_ch, 3, 3}, 13), shape.hw,
      shape.hw, 1, 1);
  const snn::SpikeBatch batch =
      make_batch(syn.in_size(), syn.in_size() / 8, 14);
  std::size_t macs = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // With a 3x3 kernel at pad 1, a border row or column loses one tap row.
    const std::size_t sp = batch.pre()[i] % (shape.hw * shape.hw);
    const auto taps_1d = [&](std::size_t c) {
      return c == 0 || c + 1 == shape.hw ? std::size_t{2} : std::size_t{3};
    };
    macs += taps_1d(sp / shape.hw) * taps_1d(sp % shape.hw) * shape.out_ch;
  }
  aligned_vector<float> u(syn.out_size(), 0.0f);
  syn.propagate(batch, u.data());  // build the tap tables up front
  for (auto _ : state) {
    syn.propagate(batch, u.data());
    benchmark::DoNotOptimize(u.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(macs));
  state.counters["spikes"] = static_cast<double>(batch.size());
  state.counters["dense_crossover"] =
      static_cast<double>(syn.dense_drive_threshold());
}

void BM_PoolSpikePropagate(benchmark::State& state) {
  snn::PoolTopology syn(16, 16, 16, 2);
  const snn::SpikeBatch batch = make_batch(syn.in_size(), 512, 15);
  std::vector<float> u(syn.out_size(), 0.0f);
  for (auto _ : state) {
    syn.propagate(batch, u.data());
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PoolSpikePropagate);

void BM_Encode(benchmark::State& state) {
  const auto coding = static_cast<snn::Coding>(state.range(0));
  const auto scheme = coding::make_scheme(coding);
  const Tensor a = random_activations(768, 6);
  snn::SimWorkspace ws;
  for (auto _ : state) {
    scheme->encode_into(a, ws, ws.cur);
    benchmark::DoNotOptimize(ws.cur.neurons());
    benchmark::ClobberMemory();
  }
  state.SetLabel(snn::coding_name(coding));
}
BENCHMARK(BM_Encode)
    ->Arg(static_cast<int>(snn::Coding::kRate))
    ->Arg(static_cast<int>(snn::Coding::kPhase))
    ->Arg(static_cast<int>(snn::Coding::kBurst))
    ->Arg(static_cast<int>(snn::Coding::kTtfs));

/// A hidden layer of `channels` x `spatial` neurons whose accumulator the
/// fire benches scan: spatial > 1 is a conv layer (a 1x1 conv, so its
/// potentials sit in the {spatial, channel} layout and the fired slots go
/// through the canonical reorder), spatial == 1 a dense layer (identity).
std::unique_ptr<snn::SynapseTopology> fire_layer(std::size_t channels,
                                                 std::size_t spatial) {
  if (spatial > 1) {
    return std::make_unique<snn::ConvTopology>(
        Tensor{Shape{channels, 1, 1, 1}}, 1, spatial, 1, 0);
  }
  return std::make_unique<snn::DenseTopology>(Tensor{Shape{channels, 1}});
}

/// One fire step of the rate/phase firing scan as a scheme runs it: the
/// slot-order threshold_fire with soft reset, then StageState's canonical
/// reorder. One potential in eight covers theta (traced conv1a fires on
/// about 12% of its neuron-steps). Each iteration restores the potentials
/// (one copy of n floats, the same on every table) so every pass fires the
/// same neurons.
void BM_ThresholdFire(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto spatial = static_cast<std::size_t>(state.range(1));
  const std::size_t n = channels * spatial;
  const auto syn = fire_layer(channels, spatial);
  snn::StageState st;
  st.bind(*syn);
  const float theta = coding::default_params(snn::Coding::kRate).threshold;
  Rng rng(17);
  aligned_vector<float> u0(n);
  for (float& v : u0) {
    const bool fires = rng.uniform(0.0, 1.0) < 0.125;
    v = static_cast<float>(rng.uniform(fires ? 1.0 : 0.0, fires ? 2.0 : 1.0)) *
        theta;
  }
  simd::ThresholdCtx ctx;
  ctx.u = st.u.data();
  ctx.n = n;
  ctx.threshold = theta;
  ctx.subtract = true;
  ctx.fired = st.fired.data();
  std::size_t nf = 0;
  for (auto _ : state) {
    std::copy(u0.begin(), u0.end(), st.u.begin());
    nf = simd::kernels().threshold_fire(ctx);
    benchmark::DoNotOptimize(st.canonical_fired(nf));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["fired"] = static_cast<double>(nf);
}
// The TSNN_FAST zoo's conv1a (8 channels x 16x16) and fc1 (48) outputs:
// the rows map onto perfbench's traced stage.rate.conv1a / fc1 spans.
BENCHMARK(BM_ThresholdFire)->ArgNames({"ch", "hw"})->Args({8, 256})->Args({48, 1});

/// Burst coding's fire step with the registry's burst params: the
/// slot-order burst_fire scan, then the canonical reorder, on the same
/// layers as BM_ThresholdFire. One potential in eight covers its quantum
/// and the counters start below, at and above cap. Each iteration restores
/// the potentials and counters (two copies of n words, the same on every
/// table) so every pass fires the same neurons.
void BM_BurstFire(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto spatial = static_cast<std::size_t>(state.range(1));
  const std::size_t n = channels * spatial;
  const auto syn = fire_layer(channels, spatial);
  snn::StageState st;
  st.bind(*syn);
  const snn::CodingParams p = coding::default_params(snn::Coding::kBurst);
  const coding::BurstScheme scheme(p);
  float q[8];
  for (std::size_t e = 0; e < 8; ++e) {
    q[e] = p.threshold * scheme.burst_gain(e);
  }
  Rng rng(16);
  aligned_vector<float> u0(n);
  aligned_vector<std::uint32_t> k0(n);
  for (std::size_t j = 0; j < n; ++j) {
    k0[j] = static_cast<std::uint32_t>(rng.uniform_index(p.burst_cap + 3));
    const float quantum = q[std::min<std::size_t>(k0[j], p.burst_cap)];
    const bool fires = rng.uniform(0.0, 1.0) < 0.125;
    u0[j] =
        static_cast<float>(rng.uniform(fires ? 1.0 : 0.0, fires ? 2.0 : 1.0)) *
        quantum;
  }
  st.k.resize(n);
  simd::BurstFireCtx ctx;
  ctx.u = st.u.data();
  ctx.k = st.k.data();
  ctx.n = n;
  ctx.q = q;
  ctx.cap = static_cast<std::uint32_t>(p.burst_cap);
  ctx.fired = st.fired.data();
  std::size_t nf = 0;
  for (auto _ : state) {
    std::copy(u0.begin(), u0.end(), st.u.begin());
    std::copy(k0.begin(), k0.end(), st.k.begin());
    nf = simd::kernels().burst_fire(ctx);
    benchmark::DoNotOptimize(st.canonical_fired(nf));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["fired"] = static_cast<double>(nf);
}
BENCHMARK(BM_BurstFire)->ArgNames({"ch", "hw"})->Args({8, 256})->Args({48, 1});

/// Times `noise` the way the simulator runs it: apply_inplace() on a warm
/// EventBuffer with warm scratch. Each iteration restores the clean rate
/// train by copy-assignment (storage reused), so the loop allocates nothing.
void run_noise_bench(benchmark::State& state, const snn::NoiseModel& noise,
                     std::uint64_t data_seed, std::uint64_t rng_seed) {
  const auto scheme = coding::make_scheme(snn::Coding::kRate);
  snn::SimWorkspace ws;
  snn::EventBuffer clean;
  scheme->encode_into(random_activations(768, data_seed), ws, clean);
  Rng rng(rng_seed);
  ws.cur = clean;  // warm-up: grow the buffer and scratch before timing
  noise.apply_inplace(ws.cur, ws.sort, rng);
  for (auto _ : state) {
    ws.cur = clean;
    noise.apply_inplace(ws.cur, ws.sort, rng);
    benchmark::DoNotOptimize(ws.cur.neurons());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(clean.size()));
}

void BM_DeletionNoise(benchmark::State& state) {
  run_noise_bench(state, *noise::make_deletion(0.5), 7, 8);
}
BENCHMARK(BM_DeletionNoise);

void BM_JitterNoise(benchmark::State& state, double sigma) {
  run_noise_bench(state, *noise::make_jitter(sigma), 9, 10);
}

/// Registers BM_JitterNoise<suffix>/sigma:<s> for s in {0.5, 1.5, 2, 4},
/// run through `wrap`: the wider the Gaussian, the more often a rounded
/// shift lands near a half-integer, so the rows bracket the sweep's sigmas.
template <typename Wrap>
void register_jitter_rows(const std::string& suffix, const Wrap& wrap) {
  for (const double sigma : {0.5, 1.5, 2.0, 4.0}) {
    char name[64];
    std::snprintf(name, sizeof(name), "BM_JitterNoise%s/sigma:%g",
                  suffix.c_str(), sigma);
    benchmark::RegisterBenchmark(
        name, wrap([sigma](benchmark::State& state) {
          BM_JitterNoise(state, sigma);
        }));
  }
}

/// Registers BM_ConvSpikePropagate<suffix>/<stage> for every zoo conv
/// stage, run through `wrap`.
template <typename Wrap>
void register_conv_rows(const std::string& suffix, const Wrap& wrap) {
  for (const ZooConv& shape : kZooConvs) {
    benchmark::RegisterBenchmark(
        ("BM_ConvSpikePropagate" + suffix + "/" + shape.name).c_str(),
        wrap([&shape](benchmark::State& state) {
          BM_ConvSpikePropagate(state, shape);
        }));
  }
}

/// Registers one copy of the spike-propagation, fire and noise
/// benches per runnable dispatch table, each pinned via ScopedKernelOverride for the
/// duration of its run -- BM_ConvSpikePropagate<scalar>/conv1a next to
/// BM_ConvSpikePropagate<avx2+fma>/conv1a is the vector-vs-reference
/// speedup on identical work. Only registered when more than one table is
/// runnable (a TSNN_CPUFLAGS=scalar run has nothing to compare).
void register_isa_variants() {
  const std::vector<const tsnn::simd::KernelDispatch*> tables =
      tsnn::simd::runnable_tables();
  if (tables.size() < 2) {
    return;
  }
  for (const tsnn::simd::KernelDispatch* table : tables) {
    const std::string suffix = "<" + std::string(table->isa) + ">";
    const auto pinned = [table](auto bench) {
      return [table, bench](benchmark::State& state) {
        tsnn::simd::ScopedKernelOverride override_table(*table);
        bench(state);
      };
    };
    benchmark::RegisterBenchmark(("BM_DenseSpikePropagate" + suffix).c_str(),
                                 pinned(BM_DenseSpikePropagate))
        ->Args({512, 64})
        ->Args({512, 350});
    benchmark::RegisterBenchmark(
        ("BM_DenseSpikePropagateDenseDrive" + suffix).c_str(),
        pinned(BM_DenseSpikePropagateDenseDrive))
        ->Arg(512);
    register_conv_rows(suffix, pinned);
    benchmark::RegisterBenchmark(("BM_ThresholdFire" + suffix).c_str(),
                                 pinned(BM_ThresholdFire))
        ->ArgNames({"ch", "hw"})
        ->Args({8, 256})
        ->Args({48, 1});
    benchmark::RegisterBenchmark(("BM_BurstFire" + suffix).c_str(),
                                 pinned(BM_BurstFire))
        ->ArgNames({"ch", "hw"})
        ->Args({8, 256})
        ->Args({48, 1});
    register_jitter_rows(suffix, pinned);
    benchmark::RegisterBenchmark(("BM_DeletionNoise" + suffix).c_str(),
                                 pinned(BM_DeletionNoise));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("isa", tsnn::simd::active_isa());
  register_conv_rows("", [](auto bench) { return bench; });
  register_jitter_rows("", [](auto bench) { return bench; });
  register_isa_variants();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
