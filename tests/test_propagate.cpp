// Property-style equivalence suite for the batched spike-propagation
// engine: SynapseTopology::propagate() must agree with the per-spike
// test::reference_accumulate() oracle and with one apply_dense() pass over
// the gathered batch, for dense, conv (stride/pad variants), and pooling
// topologies, on both sides of the sparse<->dense-drive threshold. Both
// library paths write the topology's accum_layout(); every comparison goes
// through test::to_canonical(), a pure permutation, so bitwise checks stay
// bitwise: below the threshold propagate() equals the oracle exactly.
//
// The whole suite then re-runs once per runnable SIMD dispatch table
// (PropagateIsa/* below), so the dense_scatter and conv_taps kernels meet
// the oracle under every table, and a cross-ISA matrix pins every vector
// variant to the scalar reference on randomized shapes: bit-exact on the
// scatter paths, <= 1e-5 on the reordered-summation dense drive.
// TSNN_CPUFLAGS narrows which tables exist, so the CI scalar-forced leg
// runs the same tests with only the reference table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simd/kernels.h"
#include "snn/topology.h"
#include "spike_test_util.h"

namespace tsnn::snn {
namespace {

using test::reference_accumulate;
using test::to_canonical;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t{shape};
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Random batch of `count` spikes with magnitudes in (0, 1]; neurons may
/// repeat when `allow_duplicates` (duplicates must sum).
SpikeBatch random_batch(std::size_t in_size, std::size_t count,
                        std::uint64_t seed, bool allow_duplicates = false) {
  SpikeBatch batch;
  Rng rng(seed);
  std::vector<bool> used(in_size, false);
  for (std::size_t i = 0; i < count; ++i) {
    auto pre = static_cast<std::uint32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(in_size)));
    if (!allow_duplicates) {
      while (used[pre]) {
        pre = static_cast<std::uint32_t>(pre + 1) %
              static_cast<std::uint32_t>(in_size);
      }
      used[pre] = true;
    }
    batch.add(pre, static_cast<float>(rng.uniform(0.01, 1.0)));
  }
  return batch;
}

/// Batch gathered into a dense input vector (duplicates summing, in batch
/// order -- the dense drive's own gather).
std::vector<float> gather(const SynapseTopology& syn, const SpikeBatch& batch) {
  std::vector<float> x(syn.in_size(), 0.0f);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    x[batch.pre()[i]] += batch.magnitude()[i];
  }
  return x;
}

/// Core property: propagate == sum of reference_accumulate ==
/// apply_dense(gather) within 1e-5 (plus a small relative cushion for large
/// partial sums), and bitwise equal to the oracle below the dense-drive
/// threshold.
void expect_equivalent(const SynapseTopology& syn, const SpikeBatch& batch) {
  const std::size_t out = syn.out_size();
  std::vector<float> accum(out, 0.0f);
  syn.propagate(batch, accum.data());
  const std::vector<float> via_batch = to_canonical(syn, accum.data());

  std::vector<float> via_events(out, 0.0f);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    reference_accumulate(syn, batch.pre()[i], batch.magnitude()[i],
                         via_events.data());
  }

  const std::vector<float> x = gather(syn, batch);
  std::vector<float> dense_accum(out, 0.0f);
  syn.apply_dense(x.data(), dense_accum.data());
  const std::vector<float> via_dense = to_canonical(syn, dense_accum.data());

  if (batch.size() < syn.dense_drive_threshold()) {
    EXPECT_EQ(via_batch, via_events) << "sparse path, batch " << batch.size();
  }
  for (std::size_t j = 0; j < out; ++j) {
    const float tol = 1e-5f + 1e-6f * std::fabs(via_events[j]);
    EXPECT_NEAR(via_batch[j], via_events[j], tol) << "vs events, out " << j;
    EXPECT_NEAR(via_batch[j], via_dense[j], tol) << "vs dense, out " << j;
  }
}

/// Out-of-range `pre` throws InvalidArgument on the sparse branch (one bad
/// id after a valid one) and on the dense-drive branch (a threshold-sized
/// batch whose last id is bad), before writing anything: `u` is still all
/// zeros after each rejected batch. A later valid batch of the same size
/// still meets the core property: a rejected batch leaves no residue in the
/// dense drive's scratch.
void expect_out_of_range_throws(const SynapseTopology& syn,
                                std::uint64_t seed) {
  const auto bad = static_cast<std::uint32_t>(syn.in_size());
  std::vector<float> u(syn.out_size(), 0.0f);
  SpikeBatch sparse;
  sparse.add(0, 1.0f);
  sparse.add(bad, 1.0f);
  ASSERT_LT(sparse.size(), syn.dense_drive_threshold());
  EXPECT_THROW(syn.propagate(sparse, u.data()), InvalidArgument);
  EXPECT_EQ(u, std::vector<float>(syn.out_size(), 0.0f))
      << "rejected sparse batch wrote into u";

  const SpikeBatch valid =
      random_batch(syn.in_size(), syn.dense_drive_threshold(), seed);
  SpikeBatch dense;
  for (std::size_t i = 0; i + 1 < valid.size(); ++i) {
    dense.add(valid.pre()[i], valid.magnitude()[i]);
  }
  dense.add(bad, 1.0f);
  EXPECT_THROW(syn.propagate(dense, u.data()), InvalidArgument);
  EXPECT_EQ(u, std::vector<float>(syn.out_size(), 0.0f))
      << "rejected dense-drive batch wrote into u";

  expect_equivalent(syn, valid);
}

/// Exercises both sides of the density threshold plus a duplicate-heavy
/// batch, with distinct seeds.
void run_threshold_sweep(const SynapseTopology& syn, std::uint64_t seed) {
  const std::size_t threshold = syn.dense_drive_threshold();
  ASSERT_GT(threshold, 0u);
  ASSERT_LE(threshold, syn.in_size());
  // Just below: per-spike scatter kernels.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold - 1, seed));
  // At/above: the dense drive takes over.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold, seed + 1));
  expect_equivalent(syn, random_batch(syn.in_size(), syn.in_size(), seed + 2));
  // Duplicates sum regardless of path.
  expect_equivalent(syn, random_batch(syn.in_size(), threshold / 2 + 1, seed + 3,
                                      /*allow_duplicates=*/true));
}

TEST(Propagate, DenseMatchesReferences) {
  DenseTopology syn(random_tensor(Shape{33, 48}, 1));
  run_threshold_sweep(syn, 2);
}

TEST(Propagate, DenseWideLayer) {
  DenseTopology syn(random_tensor(Shape{10, 256}, 3));
  run_threshold_sweep(syn, 4);
}

TEST(Propagate, DenseEmptyBatchIsNoop) {
  DenseTopology syn(random_tensor(Shape{5, 7}, 5));
  std::vector<float> u(5, 0.25f);
  syn.propagate(SpikeBatch{}, u.data());
  for (const float v : u) {
    EXPECT_FLOAT_EQ(v, 0.25f);
  }
}

TEST(Propagate, DenseOutOfRangeThrows) {
  DenseTopology syn(random_tensor(Shape{4, 6}, 6));
  SpikeBatch batch;
  batch.add(6, 1.0f);
  std::vector<float> u(4, 0.0f);
  EXPECT_THROW(syn.propagate(batch, u.data()), InvalidArgument);
  expect_out_of_range_throws(syn, 62);
}

TEST(Propagate, ConvOutOfRangeThrows) {
  ConvTopology syn(random_tensor(Shape{3, 2, 3, 3}, 63), 5, 5, 1, 1);
  expect_out_of_range_throws(syn, 64);
}

TEST(Propagate, PoolOutOfRangeThrows) {
  // Pool has no dense drive: the threshold-sized batch runs the same
  // O(1)-per-spike scatter, which must still reject the bad id.
  PoolTopology syn(2, 4, 4, 2);
  expect_out_of_range_throws(syn, 65);
}

TEST(Propagate, DenseScaleWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{9, 12}, 7));
  const SpikeBatch batch = random_batch(12, 3, 8);
  std::vector<float> before(9, 0.0f);
  syn.propagate(batch, before.data());  // builds the transposed copy
  syn.scale_weights(2.0f);
  std::vector<float> after(9, 0.0f);
  syn.propagate(batch, after.data());
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_NEAR(after[j], 2.0f * before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseMapWeightsInvalidatesTransposedCache) {
  DenseTopology syn(random_tensor(Shape{6, 10}, 9));
  const SpikeBatch batch = random_batch(10, 4, 10);
  std::vector<float> before(6, 0.0f);
  syn.propagate(batch, before.data());
  syn.map_weights([](float w) { return -w; });
  std::vector<float> after(6, 0.0f);
  syn.propagate(batch, after.data());
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(after[j], -before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
}

TEST(Propagate, DenseCloneAfterCacheBuildIsIndependent) {
  DenseTopology syn(random_tensor(Shape{8, 8}, 11));
  const SpikeBatch batch = random_batch(8, 3, 12);
  std::vector<float> u(8, 0.0f);
  syn.propagate(batch, u.data());  // warm the cache before cloning
  auto copy = syn.clone();
  copy->scale_weights(0.0f);
  expect_equivalent(syn, batch);  // original unaffected
  std::vector<float> zeroed(8, 0.0f);
  copy->propagate(batch, zeroed.data());
  for (const float v : zeroed) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Propagate, ConvStride1Pad1) {
  ConvTopology syn(random_tensor(Shape{4, 3, 3, 3}, 13), 8, 8, 1, 1);
  run_threshold_sweep(syn, 14);
}

TEST(Propagate, ConvStride2NoPad) {
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 15), 9, 9, 2, 0);
  run_threshold_sweep(syn, 16);
}

TEST(Propagate, ConvStride2Pad2Kernel5) {
  ConvTopology syn(random_tensor(Shape{3, 2, 5, 5}, 17), 10, 10, 2, 2);
  run_threshold_sweep(syn, 18);
}

TEST(Propagate, ConvRectangularInput) {
  ConvTopology syn(random_tensor(Shape{2, 1, 3, 3}, 19), 6, 11, 1, 1);
  run_threshold_sweep(syn, 20);
}

TEST(Propagate, ConvScaleWeightsInvalidatesTapCache) {
  ConvTopology syn(random_tensor(Shape{2, 2, 3, 3}, 21), 5, 5, 1, 1);
  const SpikeBatch batch = random_batch(syn.in_size(), 4, 22);
  std::vector<float> before(syn.out_size(), 0.0f);
  syn.propagate(batch, before.data());
  syn.scale_weights(3.0f);
  std::vector<float> after(syn.out_size(), 0.0f);
  syn.propagate(batch, after.data());
  for (std::size_t j = 0; j < syn.out_size(); ++j) {
    EXPECT_NEAR(after[j], 3.0f * before[j], 1e-5f + 1e-6f * std::fabs(after[j]));
  }
  expect_equivalent(syn, batch);
}

TEST(Propagate, PoolMatchesReferences) {
  PoolTopology syn(3, 6, 6, 2);
  run_threshold_sweep(syn, 23);
}

TEST(Propagate, PoolDuplicatesSum) {
  PoolTopology syn(1, 4, 4, 2);
  SpikeBatch batch;
  batch.add(0, 1.0f);
  batch.add(0, 1.0f);  // same pre twice
  batch.add(5, 2.0f);
  std::vector<float> u(syn.out_size(), 0.0f);
  syn.propagate(batch, u.data());
  EXPECT_FLOAT_EQ(u[0], 4.0f * syn.pool_weight());  // (1+1+2) into cell 0
}

TEST(Propagate, SparsePathMatchesReferenceBitwise) {
  // Below the threshold the dense/conv/pool kernels replay the per-spike
  // reference's exact adds (same values, same order) through cached weight
  // copies, so results are bit-identical up to the layout permutation --
  // the engine cannot move logits on sparse steps.
  DenseTopology dense(random_tensor(Shape{17, 29}, 24));
  ConvTopology conv(random_tensor(Shape{3, 2, 3, 3}, 26), 7, 7, 1, 1);
  PoolTopology pool(2, 6, 6, 3);
  for (const SynapseTopology* syn :
       {static_cast<const SynapseTopology*>(&dense),
        static_cast<const SynapseTopology*>(&conv),
        static_cast<const SynapseTopology*>(&pool)}) {
    const SpikeBatch batch = random_batch(syn->in_size(), 6, 27);
    std::vector<float> accum(syn->out_size(), 0.0f);
    syn->propagate(batch, accum.data());
    std::vector<float> reference(syn->out_size(), 0.0f);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      reference_accumulate(*syn, batch.pre()[i], batch.magnitude()[i],
                           reference.data());
    }
    EXPECT_EQ(to_canonical(*syn, accum.data()), reference);
  }
}

TEST(Propagate, AccumIsBitIdenticalUpToLayoutPermutation) {
  // propagate() and apply_dense() write the topology's accumulator layout.
  // Conv's is transposed {spatial, channel}; through that permutation the
  // sparse path equals the per-spike oracle and the dense drive equals one
  // apply_dense() over the gathered batch, exactly (==), on both sides of
  // the threshold.
  ConvTopology conv(random_tensor(Shape{4, 3, 3, 3}, 50), 6, 6, 1, 1);
  const AccumLayout layout = conv.accum_layout();
  EXPECT_TRUE(layout.transposed);
  EXPECT_EQ(layout.rows, 4u);
  EXPECT_EQ(layout.cols, conv.out_h() * conv.out_w());
  for (const std::size_t count :
       {std::size_t{5}, conv.dense_drive_threshold(), conv.in_size()}) {
    const SpikeBatch batch = random_batch(conv.in_size(), count, 51 + count);
    std::vector<float> accum(conv.out_size(), 0.0f);
    conv.propagate(batch, accum.data());
    std::vector<float> canonical(conv.out_size(), 0.0f);
    if (count < conv.dense_drive_threshold()) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        reference_accumulate(conv, batch.pre()[i], batch.magnitude()[i],
                             canonical.data());
      }
    } else {
      std::vector<float> dense_accum(conv.out_size(), 0.0f);
      const std::vector<float> x = gather(conv, batch);
      conv.apply_dense(x.data(), dense_accum.data());
      canonical = to_canonical(conv, dense_accum.data());
    }
    EXPECT_EQ(to_canonical(conv, accum.data()), canonical) << "batch " << count;
  }

  // Identity-layout topologies: the accumulator is the canonical order.
  EXPECT_FALSE(DenseTopology(random_tensor(Shape{9, 14}, 60))
                   .accum_layout()
                   .transposed);
  EXPECT_FALSE(PoolTopology(1, 4, 4, 2).accum_layout().transposed);
}

TEST(Propagate, RandomizedShapeSweep) {
  Rng shape_rng(28);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t out = 4 + shape_rng.uniform_index(24);
    const std::size_t in = 8 + shape_rng.uniform_index(64);
    DenseTopology dense(
        random_tensor(Shape{out, in}, 100 + static_cast<std::uint64_t>(trial)));
    run_threshold_sweep(dense, 200 + static_cast<std::uint64_t>(trial) * 7);
  }
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t oc = 1 + shape_rng.uniform_index(4);
    const std::size_t ic = 1 + shape_rng.uniform_index(3);
    const std::size_t hw = 6 + shape_rng.uniform_index(6);
    const std::size_t stride = 1 + shape_rng.uniform_index(2);
    const std::size_t pad = shape_rng.uniform_index(2);
    ConvTopology conv(random_tensor(Shape{oc, ic, 3, 3},
                                    300 + static_cast<std::uint64_t>(trial)),
                      hw, hw, stride, pad);
    run_threshold_sweep(conv, 400 + static_cast<std::uint64_t>(trial) * 7);
  }
}

// --- Per-ISA equivalence matrix ------------------------------------------
//
// Every runnable dispatch table must satisfy the same propagate/oracle/
// apply_dense property as the default, and every vector variant must match
// the scalar reference output for output: bit-exact where the kernel
// contract promises it (per-spike scatter, conv taps),
// within 1e-5 where summation order legitimately differs (dense drive /
// matvec, FMA variants). Shapes are randomized with odd sizes so vector
// tails and remainder lanes are always exercised.

std::string isa_test_name(
    const ::testing::TestParamInfo<const simd::KernelDispatch*>& info) {
  std::string name = info.param->isa;
  std::replace(name.begin(), name.end(), '+', '_');
  return name;
}

class PropagateIsa
    : public ::testing::TestWithParam<const simd::KernelDispatch*> {
 protected:
  simd::ScopedKernelOverride override_{*GetParam()};
};

TEST_P(PropagateIsa, DensePropertySweep) {
  Rng shape_rng(70);
  for (int trial = 0; trial < 4; ++trial) {
    // Deliberately odd sizes: 8k+tail fan-outs, partial last vector lane.
    const std::size_t out = 3 + 2 * shape_rng.uniform_index(32);
    const std::size_t in = 9 + 2 * shape_rng.uniform_index(48);
    DenseTopology dense(random_tensor(
        Shape{out, in}, 500 + static_cast<std::uint64_t>(trial)));
    run_threshold_sweep(dense, 600 + static_cast<std::uint64_t>(trial) * 7);
  }
}

TEST_P(PropagateIsa, ConvPropertySweep) {
  Rng shape_rng(71);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t oc = 1 + shape_rng.uniform_index(5);
    const std::size_t hw = 5 + 2 * shape_rng.uniform_index(4);  // odd sides
    const std::size_t stride = 1 + shape_rng.uniform_index(2);
    ConvTopology conv(random_tensor(Shape{oc, 2, 3, 3},
                                    700 + static_cast<std::uint64_t>(trial)),
                      hw, hw, stride, 1);
    run_threshold_sweep(conv, 800 + static_cast<std::uint64_t>(trial) * 7);
  }
}

TEST_P(PropagateIsa, SparseScatterBitExactVsScalar) {
  // Below the dense-drive threshold the scatter kernels are bit-exact
  // across every ISA: same per-slot contributions in the same order.
  DenseTopology dense(random_tensor(Shape{37, 53}, 900));
  ConvTopology conv(random_tensor(Shape{3, 2, 3, 3}, 901), 9, 9, 1, 1);
  for (std::uint64_t seed = 910; seed < 914; ++seed) {
    for (const SynapseTopology* syn :
         {static_cast<const SynapseTopology*>(&dense),
          static_cast<const SynapseTopology*>(&conv)}) {
      const SpikeBatch batch = random_batch(
          syn->in_size(), syn->dense_drive_threshold() - 1, seed);
      std::vector<float> scalar_u(syn->out_size(), 0.0f);
      std::vector<float> isa_u(syn->out_size(), 0.0f);
      {
        simd::ScopedKernelOverride scalar(simd::scalar_kernels());
        syn->propagate(batch, scalar_u.data());
      }
      syn->propagate(batch, isa_u.data());
      EXPECT_EQ(scalar_u, isa_u) << GetParam()->isa << " seed " << seed;
    }
  }
}

TEST_P(PropagateIsa, DenseDriveMatchesScalarWithinTolerance) {
  // At/above the threshold the matvec path may reorder the dot-product
  // reduction (and use FMA), so the contract is <= 1e-5 absolute plus a
  // small relative term -- the same bound the kernel-level suite enforces.
  DenseTopology dense(random_tensor(Shape{41, 67}, 920));
  for (std::uint64_t seed = 930; seed < 933; ++seed) {
    const SpikeBatch batch =
        random_batch(dense.in_size(), dense.in_size(), seed);
    std::vector<float> scalar_u(dense.out_size(), 0.0f);
    std::vector<float> isa_u(dense.out_size(), 0.0f);
    {
      simd::ScopedKernelOverride scalar(simd::scalar_kernels());
      dense.propagate(batch, scalar_u.data());
    }
    dense.propagate(batch, isa_u.data());
    for (std::size_t j = 0; j < dense.out_size(); ++j) {
      EXPECT_NEAR(scalar_u[j], isa_u[j],
                  1e-5f + 1e-5f * std::fabs(scalar_u[j]))
          << GetParam()->isa << " seed " << seed << " out " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryIsa, PropagateIsa,
                         ::testing::ValuesIn(simd::runnable_tables()),
                         isa_test_name);

}  // namespace
}  // namespace tsnn::snn
