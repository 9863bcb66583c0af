// Phase coding (weighted spikes, Kim et al. Neurocomputing 2018).
//
// A global oscillator of period K assigns each timestep a binary weight
// 2^-(1 + t mod K). An activation is transmitted once per period as its
// binary expansion; a spike's significance is its *phase*. Jitter moving a
// spike by one step doubles or halves its contribution, which is why phase
// coding degrades sharply under jitter (paper Fig. 3).
#pragma once

#include "snn/coding_base.h"

namespace tsnn::coding {

/// Phase (weighted-spike) coding scheme.
class PhaseScheme : public snn::CodingScheme {
 public:
  explicit PhaseScheme(snn::CodingParams params);

  snn::Coding kind() const override { return snn::Coding::kPhase; }
  std::string name() const override { return "phase"; }

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

  /// Binary phase weight of timestep `t`: 2^-(1 + t mod K).
  float phase_weight(std::size_t t) const;

  /// Number of full oscillation periods in the window.
  std::size_t num_periods() const { return params_.window / params_.phase_period; }
};

}  // namespace tsnn::coding
