#include "coding/burst.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "simd/kernels.h"

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
  TSNN_CHECK_MSG(params_.burst_cap <= kMaxBurstCap,
                 "burst_cap " << params_.burst_cap << " exceeds the limit of "
                              << kMaxBurstCap);
  for (std::size_t e = 0; e < gains_.size(); ++e) {
    const auto ex = static_cast<int>(std::min(e, params_.burst_cap));
    gains_[e] = std::pow(params_.burst_gain, static_cast<float>(ex));
    layer_quanta_[e] = params_.threshold * gains_[e];
  }
}

std::size_t BurstScheme::fire(float* u, std::uint32_t* k, std::size_t n,
                              const float* q, std::uint32_t* fired) const {
  simd::BurstFireCtx ctx;
  ctx.u = u;
  ctx.k = k;
  ctx.n = n;
  ctx.q = q;
  ctx.cap = static_cast<std::uint32_t>(params_.burst_cap);
  ctx.fired = fired;
  return simd::kernels().burst_fire(ctx);
}

void BurstScheme::encode_into(const Tensor& activations, SimWorkspace& ws,
                              EventBuffer& out) const {
  const std::size_t n = activations.numel();
  out.reset(n, params_.window);
  // Injection a per step, drained by escalating burst quanta (base 1.0).
  // Integration is an axpy (1 * a == a exactly) and the fire pass the
  // burst_fire scan, whose slots are the neurons here -- bit-exact split,
  // neurons are independent.
  ws.acc.assign(n, 0.0f);
  ws.k.assign(n, 0);
  const float* a = activations.data();
  std::uint32_t* fired = ws.fired_scratch(n);
  const auto& kern = simd::kernels();
  for (std::size_t t = 0; t < params_.window; ++t) {
    kern.axpy(ws.acc.data(), a, 1.0f, n);
    const std::size_t nf = fire(ws.acc.data(), ws.k.data(), n, gains_.data(),
                                fired);
    out.push_step(static_cast<std::int32_t>(t), fired, nf);
  }
  out.finalize(ws.sort);
}

void BurstScheme::decode_arrivals(const EventBuffer& in, std::size_t t,
                                  float base_in, snn::StageState& st) const {
  // Burst magnitudes depend on each sender's ISI history: the batch takes
  // the step's ids in one copy, then each magnitude is written in place.
  const EventBuffer::StepSpan span = in.step(t);
  float* mag = st.batch.assign_ids(span.ids, span.count);
  for (std::size_t i = 0; i < span.count; ++i) {
    const std::uint32_t pre = span.ids[i];
    const std::size_t k = isi_on_arrival(static_cast<std::int64_t>(t),
                                         st.isi_last[pre], st.isi_k[pre]);
    mag[i] = base_in * burst_gain(k);
  }
}

void BurstScheme::begin_layer(const EventBuffer& in, const SynapseTopology& syn,
                              LayerRole role, snn::StageState& st,
                              EventBuffer& out) const {
  TSNN_CHECK_MSG(in.num_neurons() == syn.in_size(), "train/synapse size mismatch");
  static_cast<void>(role);
  const std::size_t out_n = syn.out_size();
  out.reset(out_n, params_.window);
  st.bind(syn);
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
  st.k.assign(out_n, 0);
}

void BurstScheme::step_layer(const EventBuffer& in, const SynapseTopology& syn,
                             LayerRole role, std::size_t t, snn::StageState& st,
                             EventBuffer& out) const {
  const float base_in =
      role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  if (t < in.window()) {
    decode_arrivals(in, t, base_in, st);
    syn.propagate(st.batch, st.u.data());
  }
  // Escalating soft reset: quantum theta * g^min(k, cap), drained on fire.
  // The kernel scans potentials and counters in slot order; the fired slots
  // go out as ascending ids.
  const std::size_t nf = fire(st.u.data(), st.k.data(), syn.out_size(),
                              layer_quanta_.data(), st.fired.data());
  out.push_step(static_cast<std::int32_t>(t), st.canonical_fired(nf), nf);
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
  st.bind(syn);
  st.isi_last.assign(in.num_neurons(), -10);
  st.isi_k.assign(in.num_neurons(), 0);
}

void BurstScheme::step_readout(const EventBuffer& in,
                               const SynapseTopology& syn, LayerRole role,
                               std::size_t t, snn::StageState& st) const {
  const float base_in =
      role == LayerRole::kFirstHidden ? 1.0f : params_.threshold;
  decode_arrivals(in, t, base_in, st);
  syn.propagate(st.batch, st.u.data());
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
