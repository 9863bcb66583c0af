// sweep mode: the paper suite, planned by core::ScenarioEngine and executed
// cell by cell through the traced replica.
//
// ScenarioEngine::plan() gives the cells in the engine's order with their
// image counts, seeds and row skeletons; the replica adds only what plan()
// keeps private: each level's noise stack and the per-image requests. The
// rows go out through bench::write_scenario_suite_json, as run_scenarios
// writes them, so run.py compares the two documents row for row. With
// --spans 1 the run is single-threaded and every image goes through
// trace_request; with --spans 0, cells are spread over kSweepThreads
// workers and only the unspanned replica runs (the reference rows of an
// untraced run).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_common.h"
#include "coding/registry.h"
#include "core/checkpoint.h"
#include "core/scenario.h"
#include "core/weight_scaling.h"
#include "noise/noise.h"
#include "report/csv.h"
#include "simd/kernels.h"
#include "tool.h"

namespace perfbench {
namespace {

/// One level column's spike-noise stack, resolved like the engine's
/// private resolve_stack() for the deletion and jitter layers the paper
/// suite uses; "+WS" methods scale by the product of the deletion
/// compensations.
struct Stack {
  snn::NoiseModelPtr spike;
  float ws_factor = 1.0f;
  std::string kind = "clean";  ///< span suffix: deletion, jitter or mixed
};

std::unique_ptr<Stack> resolve_stack(
    const std::vector<core::NoiseLayerSpec>& layers, std::size_t swept,
    double level) {
  using Kind = core::NoiseLayerSpec::Kind;
  std::vector<snn::NoiseModelPtr> spike;
  auto stack = std::make_unique<Stack>();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const core::NoiseLayerSpec& layer = layers[i];
    if (layer.kind != Kind::kDeletion && layer.kind != Kind::kJitter) {
      throw std::invalid_argument(
          "the replica covers deletion and jitter noise layers only");
    }
    const double value = i == swept ? level : layer.value;
    if (value <= 0.0) {
      continue;  // a no-op layer draws nothing, as in the engine
    }
    if (layer.kind == Kind::kDeletion) {
      spike.push_back(noise::make_deletion(value));
      stack->ws_factor *= core::weight_scaling_factor(value);
    } else {
      spike.push_back(noise::make_jitter(value));
    }
    stack->kind = layer.kind == Kind::kDeletion ? "deletion" : "jitter";
  }
  if (spike.size() == 1) {
    stack->spike = std::move(spike.front());
  } else if (spike.size() > 1) {
    stack->spike = std::make_unique<noise::CompositeNoise>(std::move(spike));
    stack->kind = "mixed";
  }
  return stack;
}

struct Cell {
  core::CellPlan plan;  ///< from ScenarioEngine::plan()
  const ZooModel* zoo = nullptr;
  snn::ClassifyRequest request;  ///< image and stream set per image
  const CodingSpans* names = nullptr;
  std::uint32_t noise_span = 0;
};

/// Image-order reduction of one cell, as core::run_grid reduces it.
struct CellTotals {
  std::size_t correct = 0;
  double spikes = 0.0;
  double decisions = 0.0;
  std::size_t mismatches = 0;  ///< replica != execute_request (traced runs)

  void add(const snn::SimResult& r, std::size_t label) {
    correct += r.predicted_class == label ? 1 : 0;
    spikes += static_cast<double>(r.total_spikes);
    decisions += static_cast<double>(r.decision_timestep);
  }
};

}  // namespace

int run_sweep(const Flags& flags) {
  const std::vector<core::ScenarioSpec> specs =
      core::builtin_suite(kSweepSuite);
  const std::uint64_t seed = flags.u64("seed");
  const bool traced = flags.u64("spans") != 0;
  const std::size_t threads = traced ? 1 : kSweepThreads;
  OutFile out(flags.str("out"));
  SpanLog log(traced);

  // The engine plans over the replica's own zoo models (each loaded once,
  // under the replica's spans) through its workload provider.
  struct Slice {
    std::vector<Tensor> images;
    std::vector<std::size_t> labels;
  };
  std::map<std::string, std::unique_ptr<ZooModel>> zoos;
  std::map<std::pair<std::string, std::size_t>, Slice> slices;
  core::ScenarioEngine::Options options;
  options.default_images = kSweepImages;
  options.default_seed = seed;
  options.workload_provider = [&](const std::string& dataset,
                                  std::size_t images) {
    auto& zoo = zoos[dataset];
    if (!zoo) {
      zoo = load_zoo_model(dataset, std::numeric_limits<std::size_t>::max(),
                           log);
    }
    Slice& slice = slices[{dataset, images}];
    if (slice.images.empty()) {
      const auto n = static_cast<std::ptrdiff_t>(
          std::min(images, zoo->images.size()));
      slice.images.assign(zoo->images.begin(), zoo->images.begin() + n);
      slice.labels.assign(zoo->labels.begin(), zoo->labels.begin() + n);
    }
    return core::ScenarioWorkload{&zoo->model(), &slice.images,
                                  &slice.labels};
  };
  const std::vector<core::CellPlan> plans =
      core::ScenarioEngine(options).plan(specs);

  // The requests behind each planned cell, built in the same order
  // (scenario, dataset, method, level) and checked against the plan.
  std::map<std::string, std::unique_ptr<core::ScaledModelCache>> scaled;
  std::map<std::string, std::unique_ptr<CodingSpans>> names;
  std::vector<std::unique_ptr<Stack>> stacks;
  std::vector<snn::CodingSchemePtr> schemes;
  std::vector<Cell> cells;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const core::ScenarioSpec& spec = specs[s];
    const std::size_t swept = spec.swept_layer();
    std::vector<double> levels = spec.levels;
    if (levels.empty()) {
      levels.push_back(0.0);
    }
    const std::size_t stacks_base = stacks.size();
    for (const double level : levels) {
      stacks.push_back(resolve_stack(spec.noise, swept, level));
    }
    const std::size_t schemes_base = schemes.size();
    for (const core::MethodSpec& method : spec.methods) {
      schemes.push_back(coding::make_scheme(method.coding, method.params));
    }
    for (const std::string& dataset : spec.datasets) {
      const ZooModel& zoo = *zoos.at(dataset);
      auto& cache = scaled[dataset];
      if (!cache) {
        cache = std::make_unique<core::ScaledModelCache>(zoo.model());
      }
      for (std::size_t m = 0; m < spec.methods.size(); ++m) {
        const core::MethodSpec& method = spec.methods[m];
        const snn::CodingScheme* scheme = schemes[schemes_base + m].get();
        const std::string coding = coding_family(*scheme);
        auto& coding_names = names[coding + "/" + dataset];
        if (!coding_names) {
          coding_names = std::make_unique<CodingSpans>(
              intern_coding(log, coding, zoo.model()));
        }
        for (std::size_t li = 0; li < levels.size(); ++li) {
          const Stack& stack = *stacks[stacks_base + li];
          const float ws = method.weight_scaling ? stack.ws_factor : 1.0f;
          if (cells.size() >= plans.size()) {
            throw std::runtime_error("the replica has more cells than plan()");
          }
          Cell cell;
          cell.plan = plans[cells.size()];
          const core::ScenarioRow& row = cell.plan.row;
          if (cell.plan.scenario != s || row.dataset != dataset ||
              row.method != method.label || row.level != levels[li] ||
              row.ws_factor != static_cast<double>(ws)) {
            throw std::runtime_error("replica cell " +
                                     std::to_string(cells.size()) +
                                     " differs from ScenarioEngine::plan()");
          }
          cell.zoo = &zoo;
          cell.request.sim.model = &cache->get(ws);
          cell.request.sim.scheme = scheme;
          cell.request.sim.noise = stack.spike.get();
          cell.request.sim.policy = spec.early_exit;
          cell.request.seed = cell.plan.seed;
          cell.names = coding_names.get();
          cell.noise_span = log.intern("noise." + stack.kind);
          cells.push_back(cell);
        }
      }
    }
  }
  if (cells.size() != plans.size()) {
    throw std::runtime_error("the replica has fewer cells than plan()");
  }

  std::vector<CellTotals> totals(cells.size());
  std::size_t total_images = 0;
  for (const Cell& cell : cells) {
    total_images += cell.plan.images;
  }
  if (traced) {
    log.reserve(total_images * 40 + 1024);
    TraceScratch scratch;
    snn::SimResult r;
    std::uint64_t key = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      snn::ClassifyRequest req = cells[c].request;
      for (std::size_t i = 0; i < cells[c].plan.images; ++i, ++key) {
        req.image = &cells[c].zoo->images[i];
        req.stream = i;
        if (!trace_request(req, *cells[c].zoo, *cells[c].names,
                           cells[c].noise_span, key, log, scratch, r)) {
          ++totals[c].mismatches;
        }
        totals[c].add(r, cells[c].zoo->labels[i]);
      }
    }
  } else {
    std::atomic<std::size_t> next{0};
    run_workers(threads, [&] {
      snn::SimWorkspace ws;
      snn::SimResult r;
      SpanLog quiet(false);
      for (std::size_t c = next++; c < cells.size(); c = next++) {
        snn::ClassifyRequest req = cells[c].request;
        for (std::size_t i = 0; i < cells[c].plan.images; ++i) {
          req.image = &cells[c].zoo->images[i];
          req.stream = i;
          simulate_traced(req, ws, r, quiet, *cells[c].names,
                          cells[c].noise_span, 0, nullptr);
          totals[c].add(r, cells[c].zoo->labels[i]);
        }
      }
    });
  }

  std::vector<core::ScenarioResult> results(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    results[s].name = specs[s].name;
    results[s].level_name = specs[s].level_name();
    results[s].num_datasets = specs[s].datasets.size();
  }
  std::vector<core::ScenarioRow> rows;
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    core::ScenarioRow row = cells[c].plan.row;
    const auto n = static_cast<double>(cells[c].plan.images);
    if (cells[c].plan.images > 0) {
      row.accuracy = static_cast<double>(totals[c].correct) / n;
      row.mean_spikes = totals[c].spikes / n;
      row.mean_decision_timesteps = totals[c].decisions / n;
    }
    mismatches += totals[c].mismatches;
    core::ScenarioResult& result = results[cells[c].plan.scenario];
    result.rows.push_back(row);
    result.images_simulated += cells[c].plan.images;
    rows.push_back(std::move(row));
  }

  // The rows as run_scenarios writes its suite document.
  setenv("TSNN_BENCH_JSON", flags.str("json").c_str(), 1);
  bench::write_scenario_suite_json(kSweepSuite, specs, results, {});

  // The row sinks run_scenarios feeds per completed cell: the scenario CSV
  // and the checkpoint sidecar.
  if (traced) {
    const std::string csv_dir = flags.str("csv-dir");
    std::filesystem::create_directories(csv_dir);
    const std::uint32_t write_span = log.intern("report.write");
    report::CsvStream checkpoint(csv_dir + "/checkpoint.csv",
                                 core::checkpoint_headers());
    std::vector<std::unique_ptr<report::CsvStream>> csvs;
    for (const core::ScenarioSpec& spec : specs) {
      csvs.push_back(std::make_unique<report::CsvStream>(
          csv_dir + "/" + spec.name + ".csv",
          bench::sweep_csv_headers(spec.level_name())));
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t s = cells[c].plan.scenario;
      ScopedSpan span(log, write_span, c);
      csvs[s]->add_row(
          bench::sweep_csv_cells(rows[c], specs[s].datasets.size() > 1));
      checkpoint.add_row(core::checkpoint_cells(c, cells[c].plan, rows[c]));
    }
  }

  std::fprintf(out.f, "I cells %zu images %zu mismatches %zu isa %s\n",
               cells.size(), total_images, mismatches,
               simd::active_isa().c_str());
  log.write(out.f);
  return 0;
}

}  // namespace perfbench
