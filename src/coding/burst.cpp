#include "coding/burst.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tsnn::coding {

using snn::EventBuffer;
using snn::LayerRole;
using snn::SimWorkspace;
using snn::SynapseTopology;

namespace {

/// Receiver-side ISI decoding step: updates (last arrival, run length) of
/// one presynaptic neuron on an arrival at `t` and returns the inferred
/// gain exponent -- consecutive-step arrivals escalate, gaps reset.
inline std::size_t isi_on_arrival(std::int64_t t, std::int64_t& last,
                                  std::uint32_t& k) {
  k = (t == last + 1) ? k + 1 : 0;
  last = t;
  return k;
}

}  // namespace

BurstScheme::BurstScheme(snn::CodingParams params) : CodingScheme(params) {
  TSNN_CHECK_MSG(params_.burst_gain > 1.0f, "burst gain must exceed 1");
  TSNN_CHECK_MSG(params_.threshold > 0.0f, "burst threshold must be positive");
}

float BurstScheme::burst_gain(std::size_t k) const {
  const auto e = static_cast<int>(std::min(k, params_.burst_cap));
  return std::pow(params_.burst_gain, static_cast<float>(e));
}

void BurstScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                              EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, params_.window);
  // Injection a per step, drained by escalating burst quanta (base 1.0).
  ws.acc.assign(n, 0.0f);
  ws.k.assign(n, 0);
  float* acc = ws.acc.data();
  std::uint32_t* k = ws.k.data();
  const float* a = activations.data();
  for (std::size_t t = 0; t < params_.window; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] += a[i];
      const float quantum = burst_gain(k[i]);
      if (acc[i] >= quantum) {
        acc[i] -= quantum;
        ++k[i];
        out.push(static_cast<std::int32_t>(t), static_cast<std::uint32_t>(i));
      } else {
        k[i] = 0;
      }
    }
  }
  out.finalize(ws.sort);
}

void BurstScheme::decode_arrivals(const EventBuffer& in, std::size_t t,
                                  float base_in, snn::StageState& st) const {
  // Burst magnitudes depend on each sender's ISI history, so the batch is
  // assembled spike by spike (unlike the uniform-magnitude schemes).
  st.batch.clear();
  const EventBuffer::StepSpan span = in.step(t);
  for (std::size_t i = 0; i < span.count; ++i) {
    const std::uint32_t pre = span.ids[i];
    const std::size_t k = isi_on_arrival(static_cast<std::int64_t>(t),
                                         st.isi_last[pre], st.isi_k[pre]);
    st.batch.add(pre, base_in * burst_gain(k));
  }
}

void BurstScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, snn::StageState& st,
                              EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  out.reset(out_n, params_.window);
  st.accum_map(syn);
  st.potentials(out_n);
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
  st.k.assign(out_n, 0);
}

void BurstScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, std::size_t t, snn::StageState& st,
                             EventBuffer& out) const {
  const std::size_t out_n = syn.out_size();
  const float theta = params_.threshold;
  const float base_in = role == LayerRole::kFirstHidden ? 1.0f : theta;
  float* u = st.u.data();
  const std::uint32_t* umap = st.umap.data();
  std::uint32_t* k_out = st.k.data();
  if (t < in.window()) {
    decode_arrivals(in, t, base_in, st);
    syn.propagate_accum(st.batch, u);
  }
  for (std::size_t j = 0; j < out_n; ++j) {
    const float quantum = theta * burst_gain(k_out[j]);
    float& uj = u[umap[j]];
    if (uj >= quantum) {
      uj -= quantum;
      ++k_out[j];
      out.push(static_cast<std::int32_t>(t), static_cast<std::uint32_t>(j));
    } else {
      k_out[j] = 0;
    }
  }
}

void BurstScheme::end_layer(const EventBuffer& in, const SynapseTopology& syn,
                            LayerRole role, snn::StageState& st,
                            EventBuffer& out) const {
  static_cast<void>(in);
  static_cast<void>(syn);
  static_cast<void>(role);
  out.finalize(st.sort);
}

void BurstScheme::begin_readout(const EventBuffer& in,
                                const SynapseTopology& syn, LayerRole role,
                                snn::StageState& st) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  st.accum_map(syn);
  st.potentials(syn.out_size());
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
}

void BurstScheme::step_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               std::size_t t, snn::StageState& st) const {
  const float base_in =
      role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  decode_arrivals(in, t, base_in, st);
  syn.propagate_accum(st.batch, st.u.data());
}

Tensor BurstScheme::decode(const EventBuffer& in) const {
  Tensor out{Shape{in.num_neurons()}};
  std::vector<std::int64_t> last(in.num_neurons(), -10);
  std::vector<std::uint32_t> k(in.num_neurons(), 0);
  const float inv_t = 1.0f / static_cast<float>(params_.window);
  for (std::size_t t = 0; t < in.window(); ++t) {
    const EventBuffer::StepSpan span = in.step(t);
    for (std::size_t i = 0; i < span.count; ++i) {
      const std::uint32_t pre = span.ids[i];
      const std::size_t kk =
          isi_on_arrival(static_cast<std::int64_t>(t), last[pre], k[pre]);
      out[pre] += burst_gain(kk) * inv_t;
    }
  }
  return out;
}

}  // namespace tsnn::coding
