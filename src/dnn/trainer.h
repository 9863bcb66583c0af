// Minibatch SGD training loop.
//
// The trainer is deliberately decoupled from the data module: it accepts
// parallel vectors of images and labels so any sample source can be used.
//
// Training is data-parallel and deterministic: each minibatch's samples run
// on worker replicas of the network (Network::clone) and commit their
// gradients to the master in sample order, so weights, per-epoch loss and
// accuracy are bit-identical to a serial pass at any core count (see
// ARCHITECTURE.md, "Deterministic parallel training").
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "dnn/network.h"
#include "dnn/optimizer.h"

namespace tsnn::dnn {

/// Training hyperparameters.
struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  SgdOptimizer::Config sgd;
  double lr_decay_gamma = 0.5;     ///< step-decay factor
  std::size_t lr_decay_epochs = 4; ///< epochs per decay step
  std::uint64_t shuffle_seed = 7;
  bool verbose = false;            ///< log per-epoch loss/accuracy
};

/// Per-epoch training telemetry.
struct EpochStats {
  std::size_t epoch = 0;
  double mean_loss = 0.0;
  double train_accuracy = 0.0;
  double lr = 0.0;
};

/// Result of a full training run.
struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_train_accuracy = 0.0;
};

/// Trains `net` in place with minibatch SGD + momentum.
TrainResult train(Network& net, const std::vector<Tensor>& images,
                  const std::vector<std::size_t>& labels, const TrainConfig& config);

/// Fraction of samples whose argmax prediction matches the label. Runs the
/// forward passes on replicas across all cores; the count is exact.
double evaluate_accuracy(const Network& net, const std::vector<Tensor>& images,
                         const std::vector<std::size_t>& labels);

}  // namespace tsnn::dnn
