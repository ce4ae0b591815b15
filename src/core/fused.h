// The model-fusing structure: muffin body + muffin head.
//
// The body is a set of frozen off-the-shelf models; the head is a trained
// MLP consuming the concatenation of their score vectors. Following §3.2
// ("the proposed technique is not going to change the output if all models
// reached consensus"), the head is consulted only when the body models
// disagree; on consensus the fused system returns the consensus class.
#pragma once

#include <memory>

#include "core/score_cache.h"
#include "models/model.h"
#include "nn/mlp.h"
#include "rl/search_space.h"

namespace muffin::core {

/// Architecture description of a fused system.
struct FusingStructure {
  std::vector<std::size_t> model_indices;  ///< body (pool indices)
  nn::MlpSpec head_spec;                   ///< muffin head MLP

  /// Build from a controller structure choice and the dataset class count.
  static FusingStructure from_choice(const rl::StructureChoice& choice,
                                     std::size_t num_classes);
};

/// A fused classifier implementing the models::Model interface, so fairness
/// metrics, compositions and reports treat it like any other model.
class FusedModel final : public models::Model {
 public:
  /// `body` order must match the head's training-time gather order.
  FusedModel(std::string name, std::vector<models::ModelPtr> body,
             nn::Mlp head, bool head_only_on_disagreement = true);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::size_t num_classes() const override {
    return num_classes_;
  }
  /// Body parameters plus head parameters (Fig. 9b reports this sum).
  [[nodiscard]] std::size_t parameter_count() const override;
  /// Batch-first fused scoring: each body model scores the whole batch
  /// (their score_batch overrides), the consensus short-circuit is applied
  /// row-wise, and the head runs one batched forward over the disagreement
  /// sub-batch only. The gather and fuse run on the calling thread; a body
  /// model may still split its own rows over the pool.
  [[nodiscard]] tensor::Matrix score_batch(
      std::span<const data::Record> records) const override;

  [[nodiscard]] const std::vector<models::ModelPtr>& body() const {
    return body_;
  }
  [[nodiscard]] const nn::Mlp& head() const { return head_; }
  [[nodiscard]] std::size_t head_parameter_count() const {
    return head_.parameter_count();
  }
  [[nodiscard]] bool head_only_on_disagreement() const {
    return head_only_on_disagreement_;
  }

 private:
  std::string name_;
  std::vector<models::ModelPtr> body_;
  // Inference runs through the const, cache-free
  // Mlp::forward_batch_inference, so score_batch needs no mutex:
  // concurrent callers share head_ freely, honoring the Model concurrency
  // contract without serialization.
  nn::Mlp head_;
  bool head_only_on_disagreement_;
  std::size_t num_classes_;
};

/// Gather the body score matrix for a record span: column block m holds
/// body model m's scores (each computed via its score_batch override).
/// The single definition of the gather layout — FusedModel::score_batch
/// and serve::InferenceEngine both build their head input through here.
[[nodiscard]] tensor::Matrix gather_body_scores(
    const std::vector<models::ModelPtr>& body, std::size_t num_classes,
    std::span<const data::Record> records);

/// Result of fusing a whole gathered batch.
struct FusedBatch {
  tensor::Matrix scores;          ///< (n, num_classes), rows sum to 1
  std::vector<bool> consensus;    ///< per row: body agreed, head skipped
  std::size_t head_rows = 0;      ///< rows that ran the head forward
};

/// Fuse gathered body-score rows (the concatenated body score vectors):
/// a row whose body argmaxes all agree takes the mean body vector when the
/// gate is on (§3.2); the other rows run one batched head forward and are
/// sum-normalized. FusedModel and serve::InferenceEngine both fuse through
/// here, so every serving path shares one fuse.
[[nodiscard]] FusedBatch fuse_gathered_batch(const tensor::Matrix& gathered,
                                             const nn::Mlp& head,
                                             std::size_t body_size,
                                             std::size_t num_classes,
                                             bool head_only_on_disagreement);

/// Fast fused predictions over a cached dataset (used inside the search
/// loop and the benches, avoiding per-record model re-evaluation). The
/// consensus short-circuit resolves rows straight from the cache; the
/// remaining rows run through one batched head forward.
[[nodiscard]] std::vector<std::size_t> fused_predictions(
    const ScoreCache& cache, const FusingStructure& structure,
    const nn::Mlp& head, bool head_only_on_disagreement = true);

}  // namespace muffin::core
