// Genuinely trained classifier substrate.
//
// A small MLP trained on the synthetic record features. Used to validate
// that the phenomena the calibrated pool encodes (unfairness on rare
// groups, the Fig. 2 seesaw under re-weighting) also emerge from *real*
// training on this data distribution, and as the retraining vehicle for
// the Method-D / Method-L baselines.
#pragma once

#include <optional>

#include "models/model.h"
#include "nn/mlp.h"
#include "nn/trainer.h"

namespace muffin::models {

struct TrainableConfig {
  std::vector<std::size_t> hidden_dims = {32, 24};
  nn::Activation activation = nn::Activation::Relu;
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  double learning_rate = 2e-3;
  std::uint64_t seed = 7;
};

/// A trainable MLP classifier over record feature vectors.
class TrainableClassifier final : public Model {
 public:
  /// Builds an untrained classifier shaped for `dataset` (feature width and
  /// class count are read from it).
  TrainableClassifier(std::string name, const data::Dataset& dataset,
                      TrainableConfig config = {});

  /// Train on `train` with optional per-sample weights (size must match
  /// `train.size()` when provided). Returns the final mean epoch loss.
  double fit(const data::Dataset& train,
             std::span<const double> sample_weights = {});

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::size_t num_classes() const override {
    return num_classes_;
  }
  [[nodiscard]] std::size_t parameter_count() const override {
    return mlp_.parameter_count();
  }
  /// Batched scoring: one feature-gather, one MLP GEMM forward, row-wise
  /// softmax.
  [[nodiscard]] tensor::Matrix score_batch(
      std::span<const data::Record> records) const override;

  [[nodiscard]] bool is_trained() const { return trained_; }
  [[nodiscard]] const nn::Mlp& mlp() const { return mlp_; }
  [[nodiscard]] const TrainableConfig& config() const { return config_; }

 private:
  std::string name_;
  std::size_t num_classes_;
  std::size_t feature_dim_;
  TrainableConfig config_;
  // Inference goes through the const, cache-free
  // Mlp::forward_batch_inference, so scoring needs no mutable state or
  // locking.
  nn::Mlp mlp_;
  bool trained_ = false;
};

/// Build a nn::TrainingSet view of a dataset's features/labels. Weights
/// default to 1.
[[nodiscard]] nn::TrainingSet to_training_set(
    const data::Dataset& dataset,
    std::span<const double> sample_weights = {});

}  // namespace muffin::models
