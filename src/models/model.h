// Abstract classification model interface.
//
// Everything downstream of the model pool (fairness metrics, baselines,
// muffin head, controller) consumes this interface only, so calibrated
// simulation models and genuinely trained classifiers are interchangeable.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "data/dataset.h"
#include "tensor/matrix.h"

namespace muffin::models {

/// A classifier over dataset records.
class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::size_t num_classes() const = 0;
  /// Number of trainable parameters in the underlying network ("body"
  /// parameters in muffin terms; Table I / Fig. 9b report these).
  [[nodiscard]] virtual std::size_t parameter_count() const = 0;

  /// Batch scoring — the one scoring entry a model implements: row i of
  /// the result is the class-score vector (non-negative, sums to 1) of
  /// records[i]. Deterministic, and each row depends only on its own
  /// record, so any batch containing a record gives that record the same
  /// bits (a record scored alone is a batch of one).
  ///
  /// Thread safety: must be safe to call concurrently from multiple
  /// threads on the same instance (the serving engine and the parallel
  /// search both rely on this). Every in-tree model is purely functional
  /// on this path (nn::Mlp::forward_batch_inference is const and
  /// cache-free), so none locks; a model with mutable internal state must
  /// synchronize it itself.
  [[nodiscard]] virtual tensor::Matrix score_batch(
      std::span<const data::Record> records) const = 0;

  /// Scores of one record: score_batch on a batch of one.
  [[nodiscard]] tensor::Vector scores(const data::Record& record) const;

  /// Argmax class of scores(record).
  [[nodiscard]] std::size_t predict(const data::Record& record) const;

  /// Convenience: predictions for every record of a dataset (one
  /// score_batch call over the record span).
  [[nodiscard]] std::vector<std::size_t> predict_all(
      const data::Dataset& dataset) const;
};

using ModelPtr = std::shared_ptr<const Model>;

}  // namespace muffin::models
