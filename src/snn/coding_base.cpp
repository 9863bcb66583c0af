#include "snn/coding_base.h"

#include <algorithm>

namespace tsnn::snn {

std::string coding_name(Coding coding) {
  switch (coding) {
    case Coding::kRate: return "rate";
    case Coding::kPhase: return "phase";
    case Coding::kBurst: return "burst";
    case Coding::kTtfs: return "ttfs";
    case Coding::kTtas: return "ttas";
  }
  return "unknown";
}

void CodingScheme::run_layer_into(const EventBuffer& in,
                                  const SynapseTopology& syn, LayerRole role,
                                  SimWorkspace& ws, EventBuffer& out) const {
  StageState& st = ws.seq;
  begin_layer(in, syn, role, st, out);
  const std::size_t steps = layer_steps(in.window());
  for (std::size_t t = 0; t < steps; ++t) {
    step_layer(in, syn, role, t, st, out);
  }
  end_layer(in, syn, role, st, out);
}

void CodingScheme::readout_into(const EventBuffer& in,
                                const SynapseTopology& syn, LayerRole role,
                                SimWorkspace& ws, float* logits) const {
  StageState& st = ws.seq;
  begin_readout(in, syn, role, st);
  const std::size_t steps = in.window();
  for (std::size_t t = 0; t < steps; ++t) {
    step_readout(in, syn, role, t, st);
  }
  finish_readout(syn, st, logits);
}

void CodingScheme::finish_readout(const SynapseTopology& syn, StageState& st,
                                  float* logits) const {
  // Canonical neuron c * cols + s sits at slot s * rows + c of a
  // transposed accumulator; the copy walks that layout, no map needed.
  const AccumLayout l = syn.accum_layout();
  const float* u = st.u.data();
  if (!l.transposed) {
    std::copy(u, u + syn.out_size(), logits);
    return;
  }
  for (std::size_t c = 0; c < l.rows; ++c) {
    for (std::size_t s = 0; s < l.cols; ++s) {
      logits[c * l.cols + s] = u[s * l.rows + c];
    }
  }
}

}  // namespace tsnn::snn
