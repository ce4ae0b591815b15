// Generic mini-batch supervised trainer for Mlp models.
//
// Shared by the muffin-head trainer (core module) and the trainable
// classifier substrate (models module). Consumes a weighted classification
// dataset: features, integer labels, per-sample weights (the fairness-proxy
// group weights of Algorithm 1, or all-ones for plain training).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace muffin::nn {

/// A weighted supervised classification dataset (row-major features).
struct TrainingSet {
  tensor::Matrix features;          // (n, input_dim)
  std::vector<std::size_t> labels;  // (n), values in [0, num_classes)
  std::vector<double> weights;      // (n), per-sample loss weights
  std::size_t num_classes = 0;

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  /// Validates internal consistency; throws muffin::Error when broken.
  void validate() const;
};

struct TrainerConfig {
  std::size_t epochs = 50;
  std::size_t batch_size = 64;
  bool shuffle = true;
  /// Invoked after each epoch with (epoch, mean loss over the epoch).
  std::function<void(std::size_t, double)> on_epoch;
};

/// Runs mini-batch gradient descent of `loss` over `data`; returns the mean
/// loss of the final epoch. Each minibatch runs as one batched
/// forward/backward (per-layer GEMM via Mlp::forward_batch/backward_batch)
/// in workspaces reused across minibatches.
/// Trainer.MatchesPerSampleReferenceBitwise (tests/nn/test_trainer.cpp)
/// pins the trained weights and the returned loss against a per-sample
/// reference loop.
double train(Mlp& mlp, const TrainingSet& data, const Loss& loss,
             Optimizer& optimizer, const TrainerConfig& config,
             SplitRng& rng);

/// Fraction of samples whose argmax prediction matches the label (one
/// batched inference forward over the whole set).
[[nodiscard]] double evaluate_accuracy(const Mlp& mlp,
                                       const TrainingSet& data);

}  // namespace muffin::nn
