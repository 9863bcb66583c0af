// Burst coding (Park et al. DAC 2019).
//
// Consecutive spikes escalate in significance by a geometric gain g: the
// k-th spike of an uninterrupted burst carries g^k times the base charge.
// The *receiver* reconstructs k from inter-spike intervals, so deleting a
// spike mid-burst or jittering one off its slot demotes the remainder of
// the burst -- the physical reason burst coding sits between rate and TTFS
// in noise robustness.
#pragma once

#include <array>

#include "snn/coding_base.h"

namespace tsnn::coding {

/// Burst coding scheme with sender-side escalation and receiver-side ISI
/// decoding.
class BurstScheme : public snn::CodingScheme {
 public:
  /// Largest accepted burst_cap: the burst_fire kernel keeps the whole
  /// quantum table, g^0 .. g^cap, in one 8-lane register.
  static constexpr std::size_t kMaxBurstCap = 7;

  explicit BurstScheme(snn::CodingParams params);

  snn::Coding kind() const override { return snn::Coding::kBurst; }
  std::string name() const override { return "burst"; }

  void encode_into(const Tensor& activations, snn::SimWorkspace& ws,
                   snn::EventBuffer& out) const override;

  bool causal_step() const override { return true; }
  std::size_t layer_steps(std::size_t in_window) const override {
    static_cast<void>(in_window);
    return params_.window;
  }
  void begin_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                   snn::LayerRole role, snn::StageState& st,
                   snn::EventBuffer& out) const override;
  void step_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                  snn::LayerRole role, std::size_t t, snn::StageState& st,
                  snn::EventBuffer& out) const override;
  void end_layer(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                 snn::LayerRole role, snn::StageState& st,
                 snn::EventBuffer& out) const override;
  void begin_readout(const snn::EventBuffer& in,
                     const snn::SynapseTopology& syn, snn::LayerRole role,
                     snn::StageState& st) const override;
  void step_readout(const snn::EventBuffer& in, const snn::SynapseTopology& syn,
                    snn::LayerRole role, std::size_t t,
                    snn::StageState& st) const override;

  Tensor decode(const snn::EventBuffer& in) const override;

  /// Gain of the k-th consecutive spike, capped at burst_cap: g^min(k,cap).
  float burst_gain(std::size_t k) const {
    return gains_[k < params_.burst_cap ? k : params_.burst_cap];
  }

 private:
  /// Runs the burst_fire kernel over `n` slots with quanta `q`; returns
  /// the fired count, with the ascending fired slots in `fired`.
  std::size_t fire(float* u, std::uint32_t* k, std::size_t n, const float* q,
                   std::uint32_t* fired) const;

  /// Assembles the ISI-decoded arrival batch of step `t`: each sender's
  /// escalation counter k is reconstructed from its arrival history in
  /// st.isi_last/st.isi_k (sized to `in`, reset by begin_layer/begin_readout).
  void decode_arrivals(const snn::EventBuffer& in, std::size_t t,
                       float base_in, snn::StageState& st) const;

  // gains_[e] = g^min(e, cap), built once with std::pow; layer_quanta_[e] =
  // theta * gains_[e], the hidden layers' firing quanta. The encoder's
  // quanta are gains_ itself (theta = 1 there, and 1 * g == g exactly).
  std::array<float, kMaxBurstCap + 1> gains_{};
  std::array<float, kMaxBurstCap + 1> layer_quanta_{};
};

}  // namespace tsnn::coding
