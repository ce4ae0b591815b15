#include "models/model.h"

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::models {

tensor::Vector Model::scores(const data::Record& record) const {
  const tensor::Matrix scored = score_batch({&record, 1});
  MUFFIN_REQUIRE(scored.rows() == 1 && scored.cols() == num_classes(),
                 "model returned a malformed score vector");
  return tensor::Vector(scored.row(0).begin(), scored.row(0).end());
}

std::size_t Model::predict(const data::Record& record) const {
  return tensor::argmax(scores(record));
}

std::vector<std::size_t> Model::predict_all(
    const data::Dataset& dataset) const {
  const tensor::Matrix scores = score_batch(dataset.records());
  std::vector<std::size_t> predictions(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    predictions[i] = tensor::argmax(scores.row(i));
  }
  return predictions;
}

}  // namespace muffin::models
