#include "models/trainable.h"

#include <algorithm>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace muffin::models {

namespace {
nn::MlpSpec classifier_spec(const data::Dataset& dataset,
                            const TrainableConfig& config) {
  MUFFIN_REQUIRE(dataset.size() > 0, "dataset must be non-empty");
  nn::MlpSpec spec;
  spec.input_dim = dataset.record(0).features.size();
  MUFFIN_REQUIRE(spec.input_dim > 0, "records must carry features");
  spec.hidden_dims = config.hidden_dims;
  spec.output_dim = dataset.num_classes();
  spec.hidden_activation = config.activation;
  spec.output_activation = nn::Activation::Identity;
  return spec;
}
}  // namespace

nn::TrainingSet to_training_set(const data::Dataset& dataset,
                                std::span<const double> sample_weights) {
  MUFFIN_REQUIRE(dataset.size() > 0, "dataset must be non-empty");
  MUFFIN_REQUIRE(
      sample_weights.empty() || sample_weights.size() == dataset.size(),
      "sample weights must match dataset size");
  const std::size_t feature_dim = dataset.record(0).features.size();
  nn::TrainingSet set;
  set.num_classes = dataset.num_classes();
  set.features.resize(dataset.size(), feature_dim);
  set.labels.resize(dataset.size());
  set.weights.assign(dataset.size(), 1.0);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const data::Record& record = dataset.record(i);
    MUFFIN_REQUIRE(record.features.size() == feature_dim,
                   "all records must share a feature width");
    for (std::size_t d = 0; d < feature_dim; ++d) {
      set.features(i, d) = record.features[d];
    }
    set.labels[i] = record.label;
    if (!sample_weights.empty()) set.weights[i] = sample_weights[i];
  }
  return set;
}

TrainableClassifier::TrainableClassifier(std::string name,
                                         const data::Dataset& dataset,
                                         TrainableConfig config)
    : name_(std::move(name)),
      num_classes_(dataset.num_classes()),
      feature_dim_(dataset.record(0).features.size()),
      config_(config),
      mlp_(classifier_spec(dataset, config)) {
  SplitRng rng(config_.seed);
  SplitRng init_rng = rng.fork("init:" + name_);
  mlp_.init(init_rng);
}

double TrainableClassifier::fit(const data::Dataset& train,
                                std::span<const double> sample_weights) {
  const nn::TrainingSet set = to_training_set(train, sample_weights);
  MUFFIN_REQUIRE(set.features.cols() == feature_dim_,
                 "training features must match classifier width");
  nn::WeightedMse loss;
  nn::Adam optimizer(nn::AdamConfig{.learning_rate = config_.learning_rate});
  nn::TrainerConfig trainer;
  trainer.epochs = config_.epochs;
  trainer.batch_size = config_.batch_size;
  SplitRng rng = SplitRng(config_.seed).fork("fit:" + name_);
  const double final_loss =
      nn::train(mlp_, set, loss, optimizer, trainer, rng);
  trained_ = true;
  return final_loss;
}

tensor::Matrix TrainableClassifier::score_batch(
    std::span<const data::Record> records) const {
  tensor::Matrix features(records.size(), feature_dim_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    MUFFIN_REQUIRE(records[i].features.size() == feature_dim_,
                   "record feature width mismatch");
    std::copy(records[i].features.begin(), records[i].features.end(),
              features.row(i).begin());
  }
  const tensor::Matrix logits = mlp_.forward_batch_inference(features);
  tensor::Matrix out(records.size(), num_classes_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    tensor::softmax_into(logits.row(i), out.row(i));
  }
  return out;
}

}  // namespace muffin::models
