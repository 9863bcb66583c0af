#include "noise/noise.h"

#include "common/error.h"
#include "noise/deletion.h"
#include "noise/jitter.h"

namespace tsnn::noise {

CompositeNoise::CompositeNoise(std::vector<snn::NoiseModelPtr> models)
    : models_(std::move(models)) {
  for (const auto& m : models_) {
    TSNN_CHECK_MSG(m != nullptr, "null noise model in composite");
  }
}

void CompositeNoise::apply_inplace(snn::EventBuffer& events,
                                   snn::EventSortScratch& scratch,
                                   Rng& rng) const {
  for (const auto& m : models_) {
    m->apply_inplace(events, scratch, rng);
  }
}

std::string CompositeNoise::name() const {
  std::string out = "composite[";
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (i > 0) {
      out += " + ";
    }
    out += models_[i]->name();
  }
  out += "]";
  return out;
}

void NoNoise::apply_inplace(snn::EventBuffer& /*events*/,
                            snn::EventSortScratch& /*scratch*/,
                            Rng& /*rng*/) const {}

snn::NoiseModelPtr make_deletion(double p) {
  return std::make_unique<DeletionNoise>(p);
}

snn::NoiseModelPtr make_jitter(double sigma) {
  return std::make_unique<JitterNoise>(sigma);
}

snn::NoiseModelPtr make_deletion_jitter(double p, double sigma) {
  std::vector<snn::NoiseModelPtr> models;
  models.push_back(make_deletion(p));
  models.push_back(make_jitter(sigma));
  return std::make_unique<CompositeNoise>(std::move(models));
}

snn::NoiseModelPtr make_clean() { return std::make_unique<NoNoise>(); }

}  // namespace tsnn::noise
