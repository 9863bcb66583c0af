// tsnn_perfbench: the executor behind perfbench/run.py.
//
//   tsnn_perfbench sweep --seed S --spans 0|1 --json FILE --out FILE
//                        --csv-dir DIR
//   tsnn_perfbench serve --schedule FILE --out FILE
//   tsnn_perfbench drive --server PATH --schedule FILE --verify 0|1
//                        --out FILE
//   tsnn_perfbench zoo   --out FILE
//   tsnn_perfbench info  (provenance and the fixed configuration of tool.h)
//
// Every mode links libtsnn and times calls into the library's public
// functions from here; nothing inside the library is instrumented. Modes
// write line records to --out and run.py turns them into metrics. The
// zoo directory and TSNN_FAST come from the environment, as for every
// tool of the repository.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "simd/kernels.h"
#include "snn/topology.h"
#include "tensor/tensor_ops.h"
#include "tool.h"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad flag: ") + argv[i]);
    }
    values_[argv[i] + 2] = argv[i + 1];
  }
}

std::string Flags::str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("missing --" + name);
  }
  return it->second;
}

std::uint64_t Flags::u64(const std::string& name) const {
  const std::string value = str(name);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + " wants a number");
  }
  return v;
}

OutFile::OutFile(const std::string& path) : f(std::fopen(path.c_str(), "w")) {
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
}

OutFile::~OutFile() { std::fclose(f); }

namespace {

/// Output positions one input position of a strided, padded convolution
/// reaches along one axis (the valid kernel taps).
std::uint32_t conv_taps(std::size_t i, std::size_t kernel, std::size_t stride,
                        std::size_t pad, std::size_t out) {
  std::uint32_t n = 0;
  for (std::size_t k = 0; k < kernel; ++k) {
    const std::size_t shifted = i + pad;
    if (shifted < k || (shifted - k) % stride != 0) {
      continue;
    }
    n += (shifted - k) / stride < out ? 1 : 0;
  }
  return n;
}

std::vector<std::uint32_t> stage_fanout(const snn::SynapseTopology& syn) {
  std::vector<std::uint32_t> fan(syn.in_size(), 0);
  if (const auto* conv = dynamic_cast<const snn::ConvTopology*>(&syn)) {
    const snn::WeightBlock& w = conv->weight_block();
    const std::size_t out_ch = w.dim(0), in_ch = w.dim(1), k = w.dim(2);
    const std::size_t hw = conv->in_h() * conv->in_w();
    for (std::size_t c = 0; c < in_ch; ++c) {
      for (std::size_t y = 0; y < conv->in_h(); ++y) {
        for (std::size_t x = 0; x < conv->in_w(); ++x) {
          fan[c * hw + y * conv->in_w() + x] = static_cast<std::uint32_t>(
              out_ch *
              conv_taps(y, k, conv->stride(), conv->pad(), conv->out_h()) *
              conv_taps(x, k, conv->stride(), conv->pad(), conv->out_w()));
        }
      }
    }
  } else if (dynamic_cast<const snn::PoolTopology*>(&syn) != nullptr) {
    fan.assign(fan.size(), 1);
  } else {
    fan.assign(fan.size(), static_cast<std::uint32_t>(syn.out_size()));
  }
  return fan;
}

int run_zoo(const Flags& flags) {
  OutFile out(flags.str("out"));
  for (const std::string name : kZooDatasets) {
    core::DatasetKind kind;
    if (!core::dataset_kind_from_name(name, &kind)) {
      throw std::invalid_argument("unknown dataset " + name);
    }
    Stopwatch watch;
    const data::DatasetPair data = core::make_dataset(kind);
    const double generate_s = watch.elapsed();
    watch.reset();
    const core::ModelBundle bundle = core::get_or_train(kind);
    const double train_s = watch.elapsed();
    // The artifact key records the trainer's epoch count ("|train=E,...").
    const std::string key = core::zoo_artifact_key(kind);
    const std::size_t at = key.find("|train=");
    const unsigned long epochs =
        at == std::string::npos
            ? 0
            : std::strtoul(key.c_str() + at + 7, nullptr, 10);
    watch.reset();
    const core::ConvertedModel first = core::get_or_convert(kind, data);
    const double convert_s = watch.elapsed();
    watch.reset();
    const core::ConvertedModel again = core::get_or_convert(kind, data);
    const double load_s = watch.elapsed();
    std::fprintf(out.f, "Z %s %.9f %.9f %d %zu %lu %.9f %d %.9f %d %d\n",
                 name.c_str(), generate_s, train_s,
                 bundle.loaded_from_cache ? 0 : 1, bundle.data.train.size(),
                 epochs, convert_s, first.loaded_from_cache ? 1 : 0, load_s,
                 again.loaded_from_cache ? 1 : 0,
                 std::filesystem::exists(core::zoo_artifact_path(kind)) ? 1
                                                                        : 0);
  }
  return 0;
}

}  // namespace

std::unique_ptr<ZooModel> load_zoo_model(const std::string& dataset,
                                         std::size_t max_images,
                                         SpanLog& log) {
  core::DatasetKind kind;
  if (!core::dataset_kind_from_name(dataset, &kind)) {
    throw std::invalid_argument("unknown dataset " + dataset);
  }
  auto zoo = std::make_unique<ZooModel>();
  data::DatasetPair data;
  {
    ScopedSpan span(log, log.intern("data.generate"), 0);
    data = core::make_dataset(kind);
  }
  {
    ScopedSpan span(log, log.intern("zoo.load"), 0);
    zoo->converted = core::get_or_convert(kind, data);
    span.count = zoo->converted.loaded_from_cache ? 1 : 0;
  }
  const std::size_t n = std::min(max_images, data.test.size());
  zoo->images.assign(data.test.images.begin(),
                     data.test.images.begin() + static_cast<std::ptrdiff_t>(n));
  zoo->labels.assign(data.test.labels.begin(),
                     data.test.labels.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t s = 0; s < zoo->model().num_stages(); ++s) {
    zoo->fanout.push_back(stage_fanout(*zoo->model().stage(s).synapse));
  }
  return zoo;
}

void print_info() {
  std::string datasets;
  for (const char* name : kZooDatasets) {
    if (!datasets.empty()) {
      datasets += ',';
    }
    datasets += name;
  }
  std::printf(
      "isa %s\nnproc %u\ncompiler %s\nbuild_type %s\nsweep_suite %s\n"
      "sweep_images %zu\nsweep_threads %zu\nserve_threads %zu\n"
      "serve_max_batch %zu\nserve_images %zu\nzoo_datasets %s\n",
      simd::active_isa().c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kSweepSuite, kSweepImages,
      kSweepThreads, kServeThreads, kServeMaxBatch, kServeImages,
      datasets.c_str());
}

std::string coding_family(const snn::CodingScheme& scheme) {
  return snn::coding_name(scheme.kind());
}

CodingSpans intern_coding(SpanLog& log, const std::string& coding,
                          const snn::SnnModel& model) {
  CodingSpans names;
  names.sim = log.intern("sim." + coding);
  names.ref = log.intern("ref." + coding);
  names.encode = log.intern("encode." + coding);
  names.readout = log.intern("readout." + coding);
  for (std::size_t s = 0; s + 1 < model.num_stages(); ++s) {
    const std::string& stage = model.stage(s).name;
    names.stage.push_back(log.intern("stage." + coding + "." + stage));
    names.propagate.push_back(log.intern("propagate." + coding + "." + stage));
  }
  return names;
}

void simulate_traced(const snn::ClassifyRequest& req, snn::SimWorkspace& ws,
                     snn::SimResult& out, SpanLog& log,
                     const CodingSpans& names, std::uint32_t noise_span,
                     std::uint64_t key, Capture* capture) {
  if (req.sim.policy.enabled() || req.input_noise != nullptr) {
    throw std::invalid_argument(
        "the traced replica covers the policy-off reference core without "
        "input noise only");
  }
  ScopedSpan sim(log, names.sim, key);
  Rng rng = Rng::for_stream(req.seed, req.stream);
  const snn::SnnModel& model = *req.sim.model;
  const snn::CodingScheme& scheme = *req.sim.scheme;
  const snn::NoiseModel* noise = req.sim.noise;

  out.layer_spikes.clear();
  out.total_spikes = 0;
  {
    ScopedSpan span(log, names.encode, key);
    scheme.encode_into(*req.image, ws, ws.cur);
    span.count = ws.cur.size();
  }
  if (noise != nullptr) {
    ScopedSpan span(log, noise_span, key);
    noise->apply_inplace(ws.cur, ws.sort, rng);
  }
  out.layer_spikes.push_back(ws.cur.size());

  const std::size_t hidden = model.num_stages() - 1;
  if (capture != nullptr) {
    capture->stage_inputs.resize(hidden);
  }
  snn::LayerRole role = snn::LayerRole::kFirstHidden;
  for (std::size_t s = 0; s < hidden; ++s) {
    if (capture != nullptr) {
      capture->stage_inputs[s] = ws.cur;
    }
    {
      ScopedSpan span(log, names.stage[s], key);
      scheme.run_layer_into(ws.cur, *model.stage(s).synapse, role, ws,
                            ws.next);
      span.count = ws.next.size();
    }
    std::swap(ws.cur, ws.next);
    role = snn::LayerRole::kHidden;
    if (noise != nullptr) {
      ScopedSpan span(log, noise_span, key);
      noise->apply_inplace(ws.cur, ws.sort, rng);
    }
    out.layer_spikes.push_back(ws.cur.size());
  }

  const snn::SynapseTopology& readout = *model.stage(hidden).synapse;
  const std::size_t classes = readout.out_size();
  if (out.logits.rank() != 1 || out.logits.dim(0) != classes) {
    out.logits = Tensor{Shape{classes}};
  }
  {
    ScopedSpan span(log, names.readout, key);
    scheme.readout_into(ws.cur, readout, role, ws, out.logits.data());
  }
  out.decision_timestep = ws.cur.window();
  out.margin = snn::logit_margin(out.logits.data(), classes);
  for (const std::size_t n : out.layer_spikes) {
    out.total_spikes += n;
  }
  out.predicted_class = ops::argmax(out.logits);
}

void replay_propagate(const Capture& capture, const ZooModel& zoo,
                      const snn::SnnModel& model, snn::SpikeBatch& batch,
                      std::vector<float>& accum, SpanLog& log,
                      const CodingSpans& names, std::uint64_t key) {
  for (std::size_t s = 0; s < capture.stage_inputs.size(); ++s) {
    const snn::EventBuffer& in = capture.stage_inputs[s];
    const snn::SynapseTopology& syn = *model.stage(s).synapse;
    const std::vector<std::uint32_t>& fan = zoo.fanout[s];
    std::uint64_t macs = 0;
    for (std::size_t t = 0; t < in.window(); ++t) {
      const snn::EventBuffer::StepSpan step = in.step(t);
      for (std::size_t e = 0; e < step.count; ++e) {
        macs += fan[step.ids[e]];
      }
    }
    accum.assign(syn.out_size(), 0.0f);
    ScopedSpan span(log, names.propagate[s], key);
    for (std::size_t t = 0; t < in.window(); ++t) {
      snn::propagate_step(in, t, 1.0f, syn, batch, accum.data());
    }
    span.count = macs;
  }
}

bool trace_request(const snn::ClassifyRequest& req, const ZooModel& zoo,
                   const CodingSpans& names, std::uint32_t noise_span,
                   std::uint64_t key, SpanLog& log, TraceScratch& scratch,
                   snn::SimResult& out) {
  const auto reference = [&] {
    ScopedSpan span(log, names.ref, key);
    snn::execute_request(req, scratch.ws, scratch.ref);
  };
  if (key % 2 == 0) {
    reference();
  }
  simulate_traced(req, scratch.ws, out, log, names, noise_span, key, nullptr);
  if (key % 2 == 1) {
    reference();
  }
  simulate_traced(req, scratch.ws, scratch.captured, scratch.quiet, names,
                  noise_span, key, &scratch.capture);
  replay_propagate(scratch.capture, zoo, *req.sim.model, scratch.batch,
                   scratch.accum, log, names, key);
  return same_result(out, scratch.ref) && same_result(out, scratch.captured);
}

bool same_result(const snn::SimResult& a, const snn::SimResult& b) {
  return a.predicted_class == b.predicted_class &&
         a.total_spikes == b.total_spikes &&
         a.layer_spikes == b.layer_spikes &&
         a.decision_timestep == b.decision_timestep &&
         a.logits.numel() == b.logits.numel() &&
         std::memcmp(a.logits.data(), b.logits.data(),
                     a.logits.numel() * sizeof(float)) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s sweep|serve|drive|zoo|info --flag value ...\n",
                 argv[0]);
    return 2;
  }
  try {
    const perfbench::Flags flags(argc, argv, 2);
    const std::string mode = argv[1];
    if (mode == "sweep") {
      return perfbench::run_sweep(flags);
    }
    if (mode == "serve") {
      return perfbench::run_serve(flags);
    }
    if (mode == "drive") {
      return perfbench::run_drive(flags);
    }
    if (mode == "zoo") {
      return perfbench::run_zoo(flags);
    }
    if (mode == "info") {
      perfbench::print_info();
      return 0;
    }
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsnn_perfbench: %s\n", e.what());
    return 1;
  }
}
