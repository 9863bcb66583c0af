// Rate coding (Han et al. CVPR 2020 style, soft-reset IF neurons).
//
// Information is the spike count over the window: activation a is encoded
// as ~a*T spikes at the encoder, and hidden soft-reset IF neurons fire at a
// rate proportional to their accumulated PSC. Rate coding carries no
// information in spike *timing*, which is why it is flat under jitter
// (paper Fig. 3) but pays with the largest spike counts.
#pragma once

#include "snn/coding_base.h"

namespace tsnn::coding {

/// Rate coding scheme. Hidden spikes carry base magnitude theta; encoder
/// spikes carry base magnitude 1 (see LayerRole).
class RateScheme : public snn::CodingScheme {
 public:
  explicit RateScheme(snn::CodingParams params);

  snn::Coding kind() const override { return snn::Coding::kRate; }
  std::string name() const override { return "rate"; }

  void encode_into(const Tensor& activations, snn::SimWorkspace& ws,
                   snn::EventBuffer& out) const override;

  bool causal_step() const override { return true; }
  std::size_t layer_steps(std::size_t in_window) const override {
    return in_window < params_.window ? in_window : params_.window;
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
};

}  // namespace tsnn::coding
