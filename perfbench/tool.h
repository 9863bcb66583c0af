// Shared pieces of the benchmark executor (tsnn_perfbench): the fixed
// configuration, flag parsing, zoo loading timed per layer, and the traced
// replica of the simulator.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/zoo.h"
#include "snn/simulator.h"
#include "spans.h"

namespace perfbench {

using namespace tsnn;  // NOLINT: the tool speaks the library's vocabulary

// The benchmark's fixed configuration. `tsnn_perfbench info` prints it and
// run.py reads it from there, so these are its only copy.
inline constexpr const char* kSweepSuite = "paper";
inline constexpr std::size_t kSweepImages = 8;   ///< per cell
inline constexpr std::size_t kSweepThreads = 4;  ///< grid workers
inline constexpr std::size_t kServeThreads = 2;
inline constexpr std::size_t kServeMaxBatch = 8;
inline constexpr std::size_t kServeImages = 64;  ///< test images per model
/// Extra tsnn_serve spawns timed before each schedule phase, so set-up
/// samples are spread over the run instead of taken in one burst.
inline constexpr std::size_t kSetupsPerPhase = 3;
/// The zoo models, in the order the cold-start trace builds them.
inline constexpr std::array<const char*, 3> kZooDatasets = {
    "s-mnist", "s-cifar10", "s-cifar20"};

/// `--name value` pairs of one mode's command line. Every flag a mode
/// reads is required; a missing one is an error.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string str(const std::string& name) const;
  std::uint64_t u64(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Owning FILE handle for a mode's record output.
struct OutFile {
  explicit OutFile(const std::string& path);
  ~OutFile();
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;
  std::FILE* f;
};

/// One zoo model made ready the way core::load_zoo_workload does it, with
/// dataset generation and the artifact load timed as separate spans.
struct ZooModel {
  core::ConvertedModel converted;
  std::vector<Tensor> images;         ///< first `max_images` test images
  std::vector<std::size_t> labels;
  /// Per stage, the synapse fan-out of every presynaptic neuron.
  std::vector<std::vector<std::uint32_t>> fanout;

  const snn::SnnModel& model() const { return converted.conversion.model; }
};

/// Spans: "data.generate" (core::make_dataset) and "zoo.load"
/// (core::get_or_convert, count = 1 on an artifact hit).
std::unique_ptr<ZooModel> load_zoo_model(const std::string& dataset,
                                         std::size_t max_images, SpanLog& log);

/// Prints the provenance and fixed configuration as "key value" lines.
void print_info();

/// Span names of one coding family, interned once.
struct CodingSpans {
  std::uint32_t sim, ref, encode, readout;
  std::vector<std::uint32_t> stage;      ///< per hidden stage
  std::vector<std::uint32_t> propagate;  ///< per hidden stage
};
CodingSpans intern_coding(SpanLog& log, const std::string& coding,
                          const snn::SnnModel& model);

/// Per-image capture of every hidden stage's input train, for the
/// propagate replay.
struct Capture {
  std::vector<snn::EventBuffer> stage_inputs;
};

/// Executes `req` exactly as snn::execute_request does with the policy off
/// (the layer-sequential reference core), calling the coding scheme and
/// noise model layer by layer from here so each call gets its own span:
/// sim > {encode, noise.<kind>, stage.<coding>.<stage>
/// (count = spikes emitted), readout}. With `capture` set, it also copies
/// each hidden stage's input train (do not time such a pass).
void simulate_traced(const snn::ClassifyRequest& req, snn::SimWorkspace& ws,
                     snn::SimResult& out, SpanLog& log,
                     const CodingSpans& names, std::uint32_t noise_span,
                     std::uint64_t key, Capture* capture);

/// Replays each captured hidden-stage input through snn::propagate_step
/// (the hot-path propagate of the coding schemes), one span per stage
/// with count = MACs (input spikes x fan-out).
void replay_propagate(const Capture& capture, const ZooModel& zoo,
                      const snn::SnnModel& model, snn::SpikeBatch& batch,
                      std::vector<float>& accum, SpanLog& log,
                      const CodingSpans& names, std::uint64_t key);

/// Scratch of trace_request, reused across requests on one thread.
struct TraceScratch {
  snn::SimWorkspace ws;
  snn::SimResult ref;
  snn::SimResult captured;
  Capture capture;
  snn::SpikeBatch batch;
  std::vector<float> accum;
  SpanLog quiet{false};
};

/// The three passes a traced run makes over one request: the spanned
/// replica (result into `out`); snn::execute_request under a single
/// "ref.<coding>" span, the untraced time (the two alternate order by
/// `key`, so neither always finds the caches warm); and an unspanned
/// capture pass feeding replay_propagate. False when the replica and
/// execute_request disagree.
bool trace_request(const snn::ClassifyRequest& req, const ZooModel& zoo,
                   const CodingSpans& names, std::uint32_t noise_span,
                   std::uint64_t key, SpanLog& log, TraceScratch& scratch,
                   snn::SimResult& out);

/// True when two results agree bit for bit (class, spikes per layer,
/// decision step, logits).
bool same_result(const snn::SimResult& a, const snn::SimResult& b);

std::string coding_family(const snn::CodingScheme& scheme);

/// Runs `body()` on `n` threads, joins them all, then rethrows the first
/// exception any of them raised.
template <class Body>
void run_workers(std::size_t n, const Body& body) {
  std::mutex mutex;
  std::exception_ptr first;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < n; ++t) {
    workers.emplace_back([&] {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first) {
          first = std::current_exception();
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

int run_sweep(const Flags& flags);
int run_serve(const Flags& flags);
int run_drive(const Flags& flags);

}  // namespace perfbench
