// Test-only helpers over snn::EventBuffer, the library's one spike-train
// type: building trains from (t, neuron) pairs, flattening them back to
// events, per-neuron views, one-call scheme helpers on a transient
// workspace, the reference deletion/jitter loops that the in-place noise
// models are checked against, the per-neuron rate, phase, burst and TTFS
// fire loops that the schemes are checked against, the layer-sequential simulation loop
// that snn::simulate_into is checked against, and the per-spike synapse
// scatter (reference_accumulate) that SynapseTopology::propagate is checked
// against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "snn/coding_base.h"
#include "snn/event_buffer.h"
#include "snn/noise_base.h"
#include "snn/simulator.h"
#include "snn/topology.h"
#include "snn/workspace.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace tsnn::snn::test {

/// One spike: emitting neuron and discrete emission time.
struct SpikeEvent {
  std::uint32_t neuron = 0;
  std::int32_t time = 0;

  friend bool operator==(const SpikeEvent&, const SpikeEvent&) = default;
};

/// Finalized train over `num_neurons` x `window` from (t, neuron) pairs,
/// pushed in the given order (so same-step events keep that order).
inline EventBuffer make_train(
    std::size_t num_neurons, std::size_t window,
    const std::vector<std::pair<std::int32_t, std::uint32_t>>& spikes) {
  EventBuffer train;
  train.reset(num_neurons, window);
  for (const auto& [t, neuron] : spikes) {
    train.push(t, neuron);
  }
  EventSortScratch scratch;
  train.finalize(scratch);
  return train;
}

/// Finalized train in which every neuron spikes at every step.
inline EventBuffer full_train(std::size_t num_neurons, std::size_t window) {
  std::vector<std::pair<std::int32_t, std::uint32_t>> spikes;
  for (std::size_t t = 0; t < window; ++t) {
    for (std::uint32_t n = 0; n < num_neurons; ++n) {
      spikes.emplace_back(static_cast<std::int32_t>(t), n);
    }
  }
  return make_train(num_neurons, window, spikes);
}

/// Events of a finalized train, time-major, emission order within a step.
inline std::vector<SpikeEvent> events_of(const EventBuffer& train) {
  std::vector<SpikeEvent> out;
  out.reserve(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    out.push_back(SpikeEvent{train.neurons()[i], train.times()[i]});
  }
  return out;
}

/// Spikes emitted by each neuron (length num_neurons()).
inline std::vector<std::size_t> spike_counts(const EventBuffer& train) {
  std::vector<std::size_t> counts(train.num_neurons(), 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++counts[train.neurons()[i]];
  }
  return counts;
}

/// First spike time of each neuron (length num_neurons(), -1 = silent).
inline std::vector<std::int32_t> first_spike_times(const EventBuffer& train) {
  std::vector<std::int32_t> first(train.num_neurons(), -1);
  for (std::size_t i = 0; i < train.size(); ++i) {
    std::int32_t& f = first[train.neurons()[i]];
    if (f < 0) {
      f = train.times()[i];  // events are time-major: the first hit wins
    }
  }
  return first;
}

// One-call scheme helpers. Each stands up a transient SimWorkspace, so they
// are for tests only; production callers keep a workspace across calls.

inline EventBuffer encode(const CodingScheme& scheme, const Tensor& a) {
  SimWorkspace ws;
  EventBuffer out;
  scheme.encode_into(a, ws, out);
  return out;
}

inline EventBuffer run_layer(const CodingScheme& scheme, const EventBuffer& in,
                             const SynapseTopology& syn, LayerRole role) {
  SimWorkspace ws;
  EventBuffer out;
  scheme.run_layer_into(in, syn, role, ws, out);
  return out;
}

inline Tensor readout(const CodingScheme& scheme, const EventBuffer& in,
                      const SynapseTopology& syn, LayerRole role) {
  SimWorkspace ws;
  Tensor logits{Shape{syn.out_size()}};
  scheme.readout_into(in, syn, role, ws, logits.data());
  return logits;
}

/// Copy of `in` corrupted by `noise` (apply_inplace on the copy).
inline EventBuffer corrupted(const NoiseModel& noise, const EventBuffer& in,
                             Rng& rng) {
  EventBuffer out = in;
  EventSortScratch scratch;
  noise.apply_inplace(out, scratch, rng);
  return out;
}

// Reference noise loops: the per-step bucket implementations the library
// ran before the in-place EventBuffer models. They visit events time-major
// and append survivors to per-step buckets in visit order, independently of
// EventBuffer's compaction kernel and counting sort, so a fixed seed must
// make them agree with DeletionNoise/JitterNoise::apply_inplace exactly.

/// Train rebuilt from per-step neuron buckets, in bucket order.
inline EventBuffer from_buckets(
    std::size_t num_neurons,
    const std::vector<std::vector<std::uint32_t>>& buckets) {
  std::vector<std::pair<std::int32_t, std::uint32_t>> spikes;
  for (std::size_t t = 0; t < buckets.size(); ++t) {
    for (const std::uint32_t neuron : buckets[t]) {
      spikes.emplace_back(static_cast<std::int32_t>(t), neuron);
    }
  }
  return make_train(num_neurons, buckets.size(), spikes);
}

/// Reference Bernoulli deletion: one draw per event, drop on success.
inline EventBuffer reference_deletion(const EventBuffer& in, double p,
                                      Rng& rng) {
  if (p == 0.0) {
    return in;
  }
  std::vector<std::vector<std::uint32_t>> out(in.window());
  for (std::size_t t = 0; t < in.window(); ++t) {
    const EventBuffer::StepSpan span = in.step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      if (!rng.bernoulli(p)) {
        out[t].push_back(span.ids[i]);
      }
    }
  }
  return from_buckets(in.num_neurons(), out);
}

/// Reference jitter: one rounded Gaussian shift per event, clamped into
/// the window.
inline EventBuffer reference_jitter(const EventBuffer& in, double sigma,
                                    Rng& rng) {
  if (sigma == 0.0) {
    return in;
  }
  std::vector<std::vector<std::uint32_t>> out(in.window());
  const auto last = static_cast<std::int64_t>(in.window()) - 1;
  for (std::size_t t = 0; t < in.window(); ++t) {
    const EventBuffer::StepSpan span = in.step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      const auto shift =
          static_cast<std::int64_t>(std::lround(rng.normal(0.0, sigma)));
      const std::int64_t shifted = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(t) + shift, 0, last);
      out[static_cast<std::size_t>(shifted)].push_back(span.ids[i]);
    }
  }
  return from_buckets(in.num_neurons(), out);
}

// Reference burst coding: the per-neuron loops BurstScheme ran before its
// gain table and the burst_fire kernel, with a std::pow per gain lookup.
// They build their own potentials, counters and ISI decoder state from the
// synapse's accumulator layout, so a BurstScheme with the same params must
// match them bit for bit.

/// g^min(k, cap), one std::pow per call.
inline float reference_burst_gain(const CodingParams& p, std::size_t k) {
  const auto e = static_cast<int>(std::min(k, p.burst_cap));
  return std::pow(p.burst_gain, static_cast<float>(e));
}

/// Reference burst encoder: per neuron and step, integrate `a`, then fire
/// and drain g^min(k, cap) when the charge covers it.
inline EventBuffer reference_burst_encode(const CodingParams& p,
                                          const Tensor& a) {
  const std::size_t n = a.numel();
  EventBuffer out;
  out.reset(n, p.window);
  std::vector<float> acc(n, 0.0f);
  std::vector<std::uint32_t> k(n, 0);
  for (std::size_t t = 0; t < p.window; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] += a[i];
      const float quantum = reference_burst_gain(p, k[i]);
      if (acc[i] >= quantum) {
        acc[i] -= quantum;
        ++k[i];
        out.push(static_cast<std::int32_t>(t), static_cast<std::uint32_t>(i));
      } else {
        k[i] = 0;
      }
    }
  }
  EventSortScratch scratch;
  out.finalize(scratch);
  return out;
}

/// Canonical neuron -> accumulator slot of `syn`'s accum_layout().
inline std::vector<std::uint32_t> reference_accum_map(
    const SynapseTopology& syn) {
  const AccumLayout l = syn.accum_layout();
  std::vector<std::uint32_t> map(syn.out_size());
  for (std::size_t j = 0; j < map.size(); ++j) {
    map[j] = static_cast<std::uint32_t>(
        l.transposed ? (j % l.cols) * l.rows + j / l.cols : j);
  }
  return map;
}

/// `accum` (syn.out_size() potentials in `syn`'s accum_layout(), as
/// propagate() and apply_dense() write them) permuted into canonical
/// {channel, spatial} order. Values are moved, never recomputed, so
/// bitwise comparisons survive the permutation.
inline std::vector<float> to_canonical(const SynapseTopology& syn,
                                       const float* accum) {
  const std::vector<std::uint32_t> map = reference_accum_map(syn);
  std::vector<float> out(map.size());
  for (std::size_t j = 0; j < map.size(); ++j) {
    out[j] = accum[map[j]];
  }
  return out;
}

/// Batch of a single spike of presynaptic neuron `pre` at magnitude `m`.
inline SpikeBatch one_spike(std::uint32_t pre, float m) {
  SpikeBatch batch;
  batch.add(pre, m);
  return batch;
}

/// Per-spike reference synapse: adds `m`-scaled weights of presynaptic
/// neuron `pre` into `u` (length syn.out_size(), canonical {channel,
/// spatial} layout), reading Dense, Conv and Pool geometry through their
/// public accessors. The oracle that propagate()'s kernels are checked
/// against: below the dense-drive threshold, propagate() of a batch equals
/// this summed over the batch in order, bitwise, up to to_canonical().
inline void reference_accumulate(const SynapseTopology& syn, std::size_t pre,
                                 float m, float* u) {
  if (const auto* dense = dynamic_cast<const DenseTopology*>(&syn)) {
    const WeightBlock& weight = dense->weight_block();
    const std::size_t out = weight.dim(0);
    const std::size_t in = weight.dim(1);
    TSNN_CHECK_MSG(pre < in, "pre neuron " << pre << " out of range " << in);
    const float* w = weight.data() + pre;  // column `pre`, stride `in`
    for (std::size_t j = 0; j < out; ++j) {
      u[j] += m * w[j * in];
    }
    return;
  }
  if (const auto* conv = dynamic_cast<const ConvTopology*>(&syn)) {
    const WeightBlock& weight = conv->weight_block();
    const std::size_t out_ch = weight.dim(0);
    const std::size_t in_ch = weight.dim(1);
    const std::size_t kernel = weight.dim(2);
    const std::size_t in_h = conv->in_h();
    const std::size_t in_w = conv->in_w();
    const std::size_t out_h = conv->out_h();
    const std::size_t out_w = conv->out_w();
    const std::size_t stride = conv->stride();
    const std::size_t pad = conv->pad();
    TSNN_CHECK_MSG(pre < syn.in_size(), "pre neuron out of range");
    const std::size_t ic = pre / (in_h * in_w);
    const std::size_t rem = pre % (in_h * in_w);
    const std::size_t iy = rem / in_w;
    const std::size_t ix = rem % in_w;
    const float* w = weight.data();
    // Output positions receiving from (iy, ix): oy*stride + ky - pad == iy.
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      const std::ptrdiff_t num_y =
          static_cast<std::ptrdiff_t>(iy + pad) - static_cast<std::ptrdiff_t>(ky);
      if (num_y < 0 || num_y % static_cast<std::ptrdiff_t>(stride) != 0) {
        continue;
      }
      const std::size_t oy = static_cast<std::size_t>(num_y) / stride;
      if (oy >= out_h) {
        continue;
      }
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const std::ptrdiff_t num_x =
            static_cast<std::ptrdiff_t>(ix + pad) - static_cast<std::ptrdiff_t>(kx);
        if (num_x < 0 || num_x % static_cast<std::ptrdiff_t>(stride) != 0) {
          continue;
        }
        const std::size_t ox = static_cast<std::size_t>(num_x) / stride;
        if (ox >= out_w) {
          continue;
        }
        const std::size_t spatial = oy * out_w + ox;
        for (std::size_t oc = 0; oc < out_ch; ++oc) {
          const float wv = w[((oc * in_ch + ic) * kernel + ky) * kernel + kx];
          u[oc * out_h * out_w + spatial] += m * wv;
        }
      }
    }
    return;
  }
  if (const auto* pool = dynamic_cast<const PoolTopology*>(&syn)) {
    const std::size_t in_h = pool->in_h();
    const std::size_t in_w = pool->in_w();
    const std::size_t kernel = pool->kernel();
    const std::size_t out_h = in_h / kernel;
    const std::size_t out_w = in_w / kernel;
    TSNN_CHECK_MSG(pre < syn.in_size(), "pre neuron out of range");
    const std::size_t c = pre / (in_h * in_w);
    const std::size_t rem = pre % (in_h * in_w);
    const std::size_t iy = rem / in_w;
    const std::size_t ix = rem % in_w;
    const std::size_t oy = iy / kernel;
    const std::size_t ox = ix / kernel;
    u[(c * out_h + oy) * out_w + ox] += m * pool->pool_weight();
    return;
  }
  TSNN_CHECK_MSG(false, "reference_accumulate: unknown topology");
}

/// Receiver-side ISI decoder of one burst train: one arrival batch per
/// step, each spike weighted base_in * g^k with k its sender's run length.
struct ReferenceBurstDecoder {
  CodingParams p;
  float base_in;
  std::vector<std::int64_t> last;
  std::vector<std::uint32_t> run;
  SpikeBatch batch;

  ReferenceBurstDecoder(const CodingParams& params, std::size_t senders,
                        LayerRole role)
      : p(params),
        base_in(role == LayerRole::kFirstHidden ? 1.0f : params.threshold),
        last(senders, -10),
        run(senders, 0) {}

  const SpikeBatch& arrivals(const EventBuffer& in, std::size_t t) {
    batch.clear();
    const EventBuffer::StepSpan span = in.step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      const std::uint32_t pre = span.ids[i];
      const auto now = static_cast<std::int64_t>(t);
      run[pre] = now == last[pre] + 1 ? run[pre] + 1 : 0;
      last[pre] = now;
      batch.add(pre, base_in * reference_burst_gain(p, run[pre]));
    }
    return batch;
  }
};

/// Reference burst hidden layer over params.window steps: decode and
/// propagate step t's arrivals, then fire every neuron whose potential
/// covers theta * g^min(k, cap), draining that quantum.
inline EventBuffer reference_burst_layer(const CodingParams& p,
                                         const EventBuffer& in,
                                         const SynapseTopology& syn,
                                         LayerRole role) {
  const std::size_t out_n = syn.out_size();
  const std::vector<std::uint32_t> umap = reference_accum_map(syn);
  std::vector<float> u(out_n, 0.0f);
  std::vector<std::uint32_t> k(out_n, 0);
  ReferenceBurstDecoder decoder(p, in.num_neurons(), role);
  EventBuffer out;
  out.reset(out_n, p.window);
  for (std::size_t t = 0; t < p.window; ++t) {
    if (t < in.window()) {
      syn.propagate(decoder.arrivals(in, t), u.data());
    }
    for (std::size_t j = 0; j < out_n; ++j) {
      const float quantum = p.threshold * reference_burst_gain(p, k[j]);
      float& uj = u[umap[j]];
      if (uj >= quantum) {
        uj -= quantum;
        ++k[j];
        out.push(static_cast<std::int32_t>(t), static_cast<std::uint32_t>(j));
      } else {
        k[j] = 0;
      }
    }
  }
  EventSortScratch scratch;
  out.finalize(scratch);
  return out;
}

/// Reference burst readout: the decoded arrivals of every step integrated
/// into non-firing potentials, read out in canonical order.
inline Tensor reference_burst_readout(const CodingParams& p,
                                      const EventBuffer& in,
                                      const SynapseTopology& syn,
                                      LayerRole role) {
  const std::vector<std::uint32_t> umap = reference_accum_map(syn);
  std::vector<float> u(syn.out_size(), 0.0f);
  ReferenceBurstDecoder decoder(p, in.num_neurons(), role);
  for (std::size_t t = 0; t < in.window(); ++t) {
    syn.propagate(decoder.arrivals(in, t), u.data());
  }
  Tensor logits{Shape{syn.out_size()}};
  for (std::size_t j = 0; j < umap.size(); ++j) {
    logits[j] = u[umap[j]];
  }
  return logits;
}

// Reference rate, phase and TTFS/TTAS layers: the canonical per-neuron
// fire loops the schemes ran before their fire kernels scanned the
// accumulator in slot order. Each step's arrivals go through
// propagate_step at the step's uniform magnitude (recomputed here from the
// params), and the fire rule visits canonical neurons j = 0..n at slot
// map[j], so the output trains are in ascending-id order by construction.
// The schemes must match them bit for bit on every dispatch table.

/// Fires every canonical neuron j whose potential u[map[j]] covers
/// `threshold`, draining it (the rate/phase soft reset), as step `t`.
inline void reference_threshold_step(std::vector<float>& u,
                                     const std::vector<std::uint32_t>& map,
                                     float threshold, std::size_t t,
                                     EventBuffer& out) {
  for (std::size_t j = 0; j < map.size(); ++j) {
    float& uj = u[map[j]];
    if (uj >= threshold) {
      uj -= threshold;
      out.push(static_cast<std::int32_t>(t), static_cast<std::uint32_t>(j));
    }
  }
}

/// Phase weight 2^-(1 + t mod K) of step t.
inline float reference_phase_weight(const CodingParams& p, std::size_t t) {
  return std::ldexp(1.0f, -static_cast<int>(t % p.phase_period) - 1);
}

/// Reference rate hidden layer: arrivals and threshold are both theta.
inline EventBuffer reference_rate_layer(const CodingParams& p,
                                        const EventBuffer& in,
                                        const SynapseTopology& syn) {
  const std::vector<std::uint32_t> map = reference_accum_map(syn);
  std::vector<float> u(syn.out_size(), 0.0f);
  SpikeBatch batch;
  EventBuffer out;
  out.reset(syn.out_size(), p.window);
  for (std::size_t t = 0; t < std::min(in.window(), p.window); ++t) {
    propagate_step(in, t, p.threshold, syn, batch, u.data());
    reference_threshold_step(u, map, p.threshold, t, out);
  }
  EventSortScratch scratch;
  out.finalize(scratch);
  return out;
}

/// Reference phase hidden layer: step t's arrivals weigh base_in * pw(t)
/// and neurons fire greedily at theta * pw(t).
inline EventBuffer reference_phase_layer(const CodingParams& p,
                                         const EventBuffer& in,
                                         const SynapseTopology& syn,
                                         LayerRole role) {
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : p.threshold;
  const std::vector<std::uint32_t> map = reference_accum_map(syn);
  std::vector<float> u(syn.out_size(), 0.0f);
  SpikeBatch batch;
  EventBuffer out;
  out.reset(syn.out_size(), p.window);
  for (std::size_t t = 0; t < p.window; ++t) {
    const float pw = reference_phase_weight(p, t);
    if (t < in.window()) {
      propagate_step(in, t, base_in * pw, syn, batch, u.data());
    }
    reference_threshold_step(u, map, p.threshold * pw, t, out);
  }
  EventSortScratch scratch;
  out.finalize(scratch);
  return out;
}

/// TTFS/TTAS step magnitude base_in * C_A * exp(-t / tau), with C_A the
/// kernel-sum normalization over the burst (1 for plain TTFS).
inline float reference_ttfs_magnitude(const CodingParams& p, LayerRole role,
                                      std::size_t t) {
  double z_hat = 0.0;
  for (std::size_t j = 0; j < p.burst_duration; ++j) {
    z_hat += std::exp(-static_cast<double>(j) / p.tau);
  }
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : p.threshold;
  return base_in * static_cast<float>(1.0 / z_hat) *
         std::exp(-static_cast<float>(t) / p.tau);
}

/// Reference TTFS/TTAS hidden layer: integrate the whole input window,
/// then collect every canonical neuron at or above the floor
/// theta * exp(-(T-1)/tau) and emit its burst from t1 = round(tau *
/// ln(theta / u)), clamped into the window.
inline EventBuffer reference_ttfs_layer(const CodingParams& p,
                                        const EventBuffer& in,
                                        const SynapseTopology& syn,
                                        LayerRole role) {
  const std::vector<std::uint32_t> map = reference_accum_map(syn);
  std::vector<float> u(syn.out_size(), 0.0f);
  SpikeBatch batch;
  for (std::size_t t = 0; t < in.window(); ++t) {
    propagate_step(in, t, reference_ttfs_magnitude(p, role, t), syn, batch,
                   u.data());
  }
  const auto window = static_cast<std::int64_t>(p.window);
  const float floor =
      p.threshold * std::exp(-static_cast<float>(window - 1) / p.tau);
  EventBuffer out;
  out.reset(syn.out_size(), p.window + p.burst_duration - 1);
  for (std::size_t j = 0; j < map.size(); ++j) {
    const float uj = u[map[j]];
    if (!(uj >= floor)) {
      continue;
    }
    const std::int64_t t1 = std::clamp<std::int64_t>(
        std::lround(p.tau * std::log(p.threshold / uj)), 0, window - 1);
    for (std::size_t b = 0; b < p.burst_duration; ++b) {
      out.push(static_cast<std::int32_t>(t1 + static_cast<std::int64_t>(b)),
               static_cast<std::uint32_t>(j));
    }
  }
  EventSortScratch scratch;
  out.finalize(scratch);
  return out;
}

/// Reference readout of a uniform-magnitude scheme: every input step
/// propagated at magnitude(t), read out in canonical order.
template <typename Magnitude>
inline Tensor reference_uniform_readout(const EventBuffer& in,
                                        const SynapseTopology& syn,
                                        const Magnitude& magnitude) {
  std::vector<float> u(syn.out_size(), 0.0f);
  SpikeBatch batch;
  for (std::size_t t = 0; t < in.window(); ++t) {
    propagate_step(in, t, magnitude(t), syn, batch, u.data());
  }
  const std::vector<float> canonical = to_canonical(syn, u.data());
  Tensor logits{Shape{syn.out_size()}};
  std::copy(canonical.begin(), canonical.end(), logits.data());
  return logits;
}

// Reference simulation: the layer-sequential loop, built only from the
// schemes' whole-layer entry points. Each stage runs its full window
// before the next starts, noise corrupts every train in stage order from
// req.rng, and the readout never exits early (req.policy is ignored), so
// decision_timestep is the readout input's full window. simulate_into must
// match it bit for bit whenever its policy does not fire.
inline void reference_simulate(const SimRequest& req, const Tensor& image,
                               SimResult& out) {
  const SnnModel& model = *req.model;
  const CodingScheme& scheme = *req.scheme;
  SimWorkspace transient;
  SimWorkspace& ws = req.workspace != nullptr ? *req.workspace : transient;
  out.layer_spikes.clear();

  scheme.encode_into(image, ws, ws.cur);
  if (req.noise != nullptr) {
    req.noise->apply_inplace(ws.cur, ws.sort, *req.rng);
  }
  out.layer_spikes.push_back(ws.cur.size());

  LayerRole role = LayerRole::kFirstHidden;
  for (std::size_t s = 0; s + 1 < model.num_stages(); ++s) {
    scheme.run_layer_into(ws.cur, *model.stage(s).synapse, role, ws, ws.next);
    std::swap(ws.cur, ws.next);
    role = LayerRole::kHidden;
    if (req.noise != nullptr) {
      req.noise->apply_inplace(ws.cur, ws.sort, *req.rng);
    }
    out.layer_spikes.push_back(ws.cur.size());
  }

  const SynapseTopology& readout_syn =
      *model.stage(model.num_stages() - 1).synapse;
  out.logits = Tensor{Shape{readout_syn.out_size()}};
  scheme.readout_into(ws.cur, readout_syn, role, ws, out.logits.data());
  out.decision_timestep = ws.cur.window();
  out.margin = logit_margin(out.logits.data(), out.logits.numel());
  out.total_spikes = 0;
  for (const std::size_t n : out.layer_spikes) {
    out.total_spikes += n;
  }
  out.predicted_class = ops::argmax(out.logits);
}

}  // namespace tsnn::snn::test
