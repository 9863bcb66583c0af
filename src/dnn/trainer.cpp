#include "dnn/trainer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dnn/dropout.h"
#include "dnn/loss.h"
#include "tensor/tensor_ops.h"

namespace tsnn::dnn {

namespace {

/// A worker's copy of a master network. parallel_for runs over workers, not
/// samples: index w owns replica w outright and strides over the samples, so
/// memory is O(workers x params), independent of the batch size.
struct Replica {
  explicit Replica(const Network& master) : net(master.clone()), params(net.params()) {
    net.zero_grad();
  }
  Network net;
  std::vector<Param*> params;  ///< index-aligned with the master's params()
};

std::vector<Replica> make_replicas(const Network& master, std::size_t n) {
  std::vector<Replica> replicas;
  replicas.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    replicas.emplace_back(master);
  }
  return replicas;
}

/// Copies the master's weights into every replica (after an optimizer step).
void sync_weights(std::vector<Replica>& replicas, const std::vector<Param*>& master) {
  for (Replica& r : replicas) {
    for (std::size_t j = 0; j < master.size(); ++j) {
      r.params[j]->value.storage() = master[j]->value.storage();
    }
  }
}

/// Ordered-commit gate: sample i may add into the master only after samples
/// 0..i-1 did, so every master accumulator sees the serial order. A failed
/// sample wakes every waiter, which then skips its commit.
class CommitGate {
 public:
  /// Blocks until it is sample `i`'s turn; false if a sample failed.
  bool wait_turn(std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex_);
    turn_.wait(lock, [&] { return next_ == i || failed_; });
    return !failed_;
  }

  void done() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++next_;
    }
    turn_.notify_all();
  }

  void fail() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      failed_ = true;
    }
    turn_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::size_t next_ = 0;  ///< guarded by mutex_
  bool failed_ = false;   ///< guarded by mutex_
  std::condition_variable turn_;
};

/// The master's active Dropout layers with their input shapes, and the
/// per-sample masks drawn for the current batch.
struct DropoutMasks {
  std::vector<std::size_t> layers;
  std::vector<Shape> shapes;
  std::vector<std::vector<Tensor>> per_sample;  ///< [sample][k]

  DropoutMasks(const Network& net, std::size_t batch) {
    Shape in = net.input_shape();
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const Layer& layer = net.layer(l);
      if (layer.kind() == LayerKind::kDropout &&
          static_cast<const Dropout&>(layer).rate() > 0.0) {
        layers.push_back(l);
        shapes.push_back(in);
      }
      in = layer.output_shape(in);
    }
    per_sample.assign(batch, std::vector<Tensor>(layers.size()));
  }

  /// Draws samples 0..n-1's masks from each master layer's own stream, in
  /// sample order -- the draws a serial pass over the batch would make.
  void draw(Network& master, std::size_t n) {
    for (std::size_t k = 0; k < layers.size(); ++k) {
      auto& drop = static_cast<Dropout&>(master.layer(layers[k]));
      for (std::size_t s = 0; s < n; ++s) {
        per_sample[s][k] = drop.draw_mask(shapes[k]);
      }
    }
  }

  /// Hands sample `s`'s masks to the replica that runs it.
  void preset(Network& replica, std::size_t s) {
    for (std::size_t k = 0; k < layers.size(); ++k) {
      static_cast<Dropout&>(replica.layer(layers[k])).preset_mask(std::move(per_sample[s][k]));
    }
  }
};

}  // namespace

TrainResult train(Network& net, const std::vector<Tensor>& images,
                  const std::vector<std::size_t>& labels, const TrainConfig& config) {
  TSNN_CHECK_MSG(images.size() == labels.size(), "images/labels size mismatch");
  TSNN_CHECK_MSG(!images.empty(), "empty training set");
  TSNN_CHECK_MSG(config.batch_size > 0, "batch size must be positive");

  SgdOptimizer opt(config.sgd);
  const auto params = net.params();
  Rng rng(config.shuffle_seed);

  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t batch_cap = std::min(config.batch_size, images.size());
  ThreadPool pool(std::min(ThreadPool::resolve_threads(0), batch_cap));
  std::vector<Replica> replicas = make_replicas(net, pool.size());
  DropoutMasks masks(net, batch_cap);

  TrainResult result;
  Stopwatch watch;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    opt.set_lr(step_decay_lr(config.sgd.lr, config.lr_decay_gamma,
                             config.lr_decay_epochs, epoch));
    rng.shuffle(order);

    double loss_acc = 0.0;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
      const std::size_t end = std::min(order.size(), start + config.batch_size);
      const std::size_t n = end - start;
      const auto batch_n = static_cast<float>(n);
      net.zero_grad();
      masks.draw(net, n);
      CommitGate gate;
      // Each sample runs forward and backward on a replica whose grads are
      // zero, so a replica grad element holds exactly the one addend the
      // serial loop would add to the master (or +0 where it adds nothing).
      // The master never holds -0 (it starts at +0), so g + (0 + c) == g + c
      // bit for bit; committing in sample order keeps every sum serial. The
      // pool has at least `workers` threads, so every stride is in flight
      // and the owner of the lowest uncommitted sample never waits.
      const std::size_t workers = std::min(replicas.size(), n);
      pool.parallel_for(workers, [&](std::size_t w) {
        Replica& replica = replicas[w];
        try {
          for (std::size_t s = w; s < n; s += workers) {
            const std::size_t idx = order[start + s];
            masks.preset(replica.net, s);
            const Tensor logits = replica.net.forward(images[idx], /*training=*/true);
            const LossResult lr = softmax_cross_entropy(logits, labels[idx]);
            const bool hit = ops::argmax(logits) == labels[idx];
            // Scale so the optimizer sees the batch-mean gradient.
            replica.net.backward(ops::scale(lr.grad_logits, 1.0f / batch_n));
            if (!gate.wait_turn(s)) {
              return;
            }
            loss_acc += lr.loss;
            correct += hit ? 1 : 0;
            for (std::size_t j = 0; j < params.size(); ++j) {
              float* g = params[j]->grad.data();
              const float* rg = replica.params[j]->grad.data();
              for (std::size_t i = 0; i < params[j]->grad.numel(); ++i) {
                g[i] += rg[i];
              }
            }
            gate.done();
            replica.net.zero_grad();
          }
        } catch (...) {
          gate.fail();
          throw;
        }
      });
      opt.step(params);
      sync_weights(replicas, params);
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = loss_acc / static_cast<double>(order.size());
    stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(order.size());
    stats.lr = opt.lr();
    result.epochs.push_back(stats);
    if (config.verbose) {
      TSNN_LOG(kInfo) << "epoch " << epoch << " loss " << stats.mean_loss << " acc "
                      << stats.train_accuracy << " lr " << stats.lr << " ("
                      << watch.elapsed() << "s)";
    }
  }
  result.final_train_accuracy =
      result.epochs.empty() ? 0.0 : result.epochs.back().train_accuracy;
  return result;
}

double evaluate_accuracy(const Network& net, const std::vector<Tensor>& images,
                         const std::vector<std::size_t>& labels) {
  TSNN_CHECK_MSG(images.size() == labels.size(), "images/labels size mismatch");
  if (images.empty()) {
    return 0.0;
  }
  ThreadPool pool(std::min(ThreadPool::resolve_threads(0), images.size()));
  std::vector<Replica> replicas = make_replicas(net, pool.size());
  const std::size_t workers = replicas.size();
  std::atomic<std::size_t> correct{0};
  pool.parallel_for(workers, [&](std::size_t w) {
    for (std::size_t i = w; i < images.size(); i += workers) {
      const Tensor logits = replicas[w].net.forward(images[i], /*training=*/false);
      if (ops::argmax(logits) == labels[i]) {
        correct.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  return static_cast<double>(correct.load()) / static_cast<double>(images.size());
}

}  // namespace tsnn::dnn
