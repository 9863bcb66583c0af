// Fig. 5 reproduction: A) TTFS-vs-TTAS spike-pattern comparison and B) the
// distribution of the delivered activation under deletion noise per coding.
//
// Expected shape (paper Fig. 5-B): count-based codings (rate/phase/burst)
// concentrate the noisy activation around (1-p)A; TTFS splits it between 0
// (prob p) and A (prob 1-p); TTAS with the exponentially decreasing kernel
// puts mass near both 0 and A -- the property that lets it combine all-or-
// none dropout synergy with weight-scaling mean compensation.
#include <cstdio>

#include "bench_common.h"
#include "coding/registry.h"
#include "common/string_util.h"
#include "core/activation_analysis.h"
#include "core/ttas.h"
#include "report/table.h"

namespace {

using namespace tsnn;

void print_ascii_histogram(const std::string& label,
                           const core::ActivationDistribution& dist) {
  std::printf("\n%s  (mean %.3f, std %.3f, P[~0]=%.2f, P[~A]=%.2f)\n",
              label.c_str(), dist.mean, dist.stddev, dist.p_zero, dist.p_full);
  double max_frac = 1e-9;
  for (std::size_t i = 0; i < dist.histogram.counts.size(); ++i) {
    max_frac = std::max(max_frac, dist.histogram.fraction(i));
  }
  for (std::size_t i = 0; i < dist.histogram.counts.size(); ++i) {
    const double frac = dist.histogram.fraction(i);
    const int bars = static_cast<int>(frac / max_frac * 48.0);
    std::printf("  %5.2f |%s%s %.3f\n", dist.histogram.bin_center(i),
                std::string(static_cast<std::size_t>(bars), '#').c_str(),
                bars == 0 && frac > 0 ? "." : "", frac);
  }
}

void print_spike_pattern(const std::string& label, const snn::CodingScheme& scheme,
                         float activation) {
  Tensor a{Shape{1}};
  a[0] = activation;
  snn::SimWorkspace ws;
  snn::EventBuffer train;
  scheme.encode_into(a, ws, train);
  std::string line;
  const std::size_t show = std::min<std::size_t>(train.window(), 40);
  for (std::size_t t = 0; t < show; ++t) {
    line += train.step_count(t) == 0 ? '.' : '|';
  }
  std::printf("  %-9s %s  (%zu spikes)\n", label.c_str(), line.c_str(),
              train.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsnn;
  bench::init(argc, argv);
  std::printf("Fig. 5 | A) TTFS vs TTAS spike patterns  B) activation distribution\n");

  // Panel A: spike trains for one activation, TTFS vs TTAS(5).
  std::printf("\nA) encoding of activation A = 0.6 (first 40 steps, '|' = spike)\n");
  print_spike_pattern("ttfs", *coding::make_scheme(snn::Coding::kTtfs), 0.6f);
  print_spike_pattern("ttas(5)", *core::make_ttas(5), 0.6f);

  // Panel B: delivered-activation distribution under deletion p = 0.5.
  core::ActivationAnalysisConfig cfg;
  cfg.activation = 0.6f;
  cfg.deletion_p = 0.5;
  cfg.trials = 4000;
  cfg.bins = 18;

  std::printf("\nB) delivered activation under deletion p=%.1f, A=%.1f\n",
              cfg.deletion_p, cfg.activation);
  report::Table summary({"Coding", "mean", "stddev", "P[~0]", "P[~A]"});
  for (const snn::Coding c : coding::baseline_codings()) {
    const auto scheme = coding::make_scheme(c);
    const auto dist = core::analyze_activation(*scheme, cfg);
    print_ascii_histogram(scheme->name(), dist);
    summary.add_row({scheme->name(), str::format_fixed(dist.mean, 3),
                     str::format_fixed(dist.stddev, 3),
                     str::format_fixed(dist.p_zero, 2),
                     str::format_fixed(dist.p_full, 2)});
  }
  const auto ttas = core::make_ttas(5);
  const auto dist = core::analyze_activation(*ttas, cfg);
  print_ascii_histogram(ttas->name(), dist);
  summary.add_row({ttas->name(), str::format_fixed(dist.mean, 3),
                   str::format_fixed(dist.stddev, 3),
                   str::format_fixed(dist.p_zero, 2),
                   str::format_fixed(dist.p_full, 2)});

  std::printf("\nSummary\n%s", summary.to_string().c_str());
  return 0;
}
