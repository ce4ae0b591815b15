// Bit-identity of Model::score_batch, the one scoring entry, for every
// model type: calibrated simulations, the trainable classifier, the
// Method-D/L baselines (both execution paths), and the fused muffin model —
// including all-consensus and all-disagreement batches, with the head gate
// on and off. Batch sizes {1, 7, 64}. Every row of a batch must equal the
// record scored alone (scores(), a batch of one), and the trainable and
// fused rows must also equal independent per-sample references built from
// the network weights (tests/nn/per_sample_reference.h) and, for the
// fused model, a per-record fuse written here.
#include "models/model.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/single_attribute.h"
#include "core/fused.h"
#include "core/head_trainer.h"
#include "core/proxy.h"
#include "core/score_cache.h"
#include "data/generators.h"
#include "models/calibrated.h"
#include "models/pool.h"
#include "models/trainable.h"
#include "../nn/per_sample_reference.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace muffin::models {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 64};

const data::Dataset& batch_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(3000, 77);
  return ds;
}

const ModelPool& batch_pool() {
  static const ModelPool pool = calibrated_isic_pool(batch_dataset());
  return pool;
}

std::vector<data::Record> first_records(std::size_t n) {
  std::vector<data::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(batch_dataset().record(i));
  }
  return records;
}

/// Asserts score_batch(records) row r == scores(records[r]) (the record
/// scored as a batch of one) bit for bit.
void expect_batch_bitwise_identical(const Model& model,
                                    std::span<const data::Record> records) {
  const tensor::Matrix batch = model.score_batch(records);
  ASSERT_EQ(batch.rows(), records.size());
  ASSERT_EQ(batch.cols(), model.num_classes());
  for (std::size_t r = 0; r < records.size(); ++r) {
    const tensor::Vector reference = model.scores(records[r]);
    for (std::size_t c = 0; c < reference.size(); ++c) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: bit identity, no ulp slack.
      EXPECT_EQ(batch(r, c), reference[c])
          << model.name() << " row " << r << " col " << c;
    }
  }
}

TEST(ScoreBatch, CalibratedModelsBitIdentical) {
  for (const std::size_t m : {std::size_t{0}, batch_pool().size() - 1}) {
    for (const std::size_t n : kBatchSizes) {
      expect_batch_bitwise_identical(batch_pool().at(m), first_records(n));
    }
  }
}

TEST(ScoreBatch, TrainableClassifierBitIdentical) {
  TrainableConfig config;
  config.epochs = 4;
  TrainableClassifier model("batch-mlp", batch_dataset(), config);
  model.fit(batch_dataset());
  for (const std::size_t n : kBatchSizes) {
    expect_batch_bitwise_identical(model, first_records(n));
  }
  // Per-sample reference: softmax of the MLP forward, written from the
  // weights. It is the float path, so pin the float mode.
  const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
  const nn::reference::MlpReference per_sample(model.mlp());
  const std::vector<data::Record> records = first_records(64);
  const tensor::Matrix batch = model.score_batch(records);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const tensor::Vector reference =
        tensor::softmax(per_sample.forward(records[r].features));
    for (std::size_t c = 0; c < reference.size(); ++c) {
      EXPECT_EQ(batch(r, c), reference[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(ScoreBatch, BaselineModelsBitIdentical) {
  const auto* resnet =
      dynamic_cast<const CalibratedModel*>(&batch_pool().by_name("ResNet-18"));
  ASSERT_NE(resnet, nullptr);
  const ModelPtr optimized = baselines::optimize_calibrated(
      *resnet, batch_dataset(), "age", baselines::Method::DataBalance);
  TrainableConfig config;
  config.epochs = 4;
  const auto retrained = baselines::optimize_trainable(
      batch_dataset(), "age", baselines::Method::FairLoss, config);
  for (const std::size_t n : kBatchSizes) {
    expect_batch_bitwise_identical(*optimized, first_records(n));
    expect_batch_bitwise_identical(*retrained, first_records(n));
  }
}

core::FusingStructure fused_structure() {
  rl::StructureChoice choice;
  choice.model_indices = {batch_pool().index_of("ShuffleNet_V2_X1_0"),
                          batch_pool().index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  return core::FusingStructure::from_choice(choice,
                                            batch_dataset().num_classes());
}

std::shared_ptr<core::FusedModel> build_fused(bool gate) {
  const core::FusingStructure structure = fused_structure();
  static const core::ScoreCache cache(batch_pool(), batch_dataset());
  static const core::ProxyDataset proxy = core::build_proxy(batch_dataset());
  core::HeadTrainConfig config;
  config.epochs = 6;
  nn::Mlp head =
      core::train_head(cache, batch_dataset(), proxy, structure, config);
  std::vector<ModelPtr> body = {batch_pool().share(structure.model_indices[0]),
                                batch_pool().share(structure.model_indices[1])};
  return std::make_shared<core::FusedModel>("Muffin", std::move(body),
                                            std::move(head), gate);
}

/// The per-record fuse (§3.2) on one gathered row: the mean body vector
/// when every body argmax agrees and the gate is on, otherwise the
/// per-sample head forward, sum-normalized.
struct ReferenceFuse {
  tensor::Vector scores;
  bool consensus = false;
};

ReferenceFuse reference_fuse(std::span<const double> gathered,
                             const nn::reference::MlpReference& head,
                             std::size_t body_size, std::size_t num_classes,
                             bool gate) {
  bool all_agree = true;
  const std::size_t first = tensor::argmax(gathered.subspan(0, num_classes));
  for (std::size_t m = 1; m < body_size; ++m) {
    if (tensor::argmax(gathered.subspan(m * num_classes, num_classes)) !=
        first) {
      all_agree = false;
    }
  }
  if (gate && all_agree) {
    tensor::Vector mean(num_classes, 0.0);
    for (std::size_t m = 0; m < body_size; ++m) {
      for (std::size_t c = 0; c < num_classes; ++c) {
        mean[c] += gathered[m * num_classes + c];
      }
    }
    for (double& v : mean) v /= static_cast<double>(body_size);
    return {std::move(mean), true};
  }
  tensor::Vector out = head.forward(gathered);
  double total = 0.0;
  for (const double v : out) total += v;
  if (total > 1e-12) {
    for (double& v : out) v /= total;
  }
  return {std::move(out), false};
}

/// Asserts every fused row equals the per-record reference: each body
/// model scores the record alone, then reference_fuse.
void expect_fused_matches_reference(const core::FusedModel& fused,
                                    std::span<const data::Record> records) {
  const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
  const nn::reference::MlpReference head(fused.head());
  const std::size_t classes = fused.num_classes();
  const tensor::Matrix batch = fused.score_batch(records);
  for (std::size_t r = 0; r < records.size(); ++r) {
    tensor::Vector gathered;
    for (const ModelPtr& body : fused.body()) {
      const tensor::Vector s = body->scores(records[r]);
      gathered.insert(gathered.end(), s.begin(), s.end());
    }
    const ReferenceFuse reference =
        reference_fuse(gathered, head, fused.body().size(), classes,
                       fused.head_only_on_disagreement());
    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_EQ(batch(r, c), reference.scores[c])
          << fused.name() << " row " << r << " col " << c;
    }
  }
}

TEST(ScoreBatch, FusedModelBitIdenticalMixedBatches) {
  const auto fused = build_fused(true);
  for (const std::size_t n : kBatchSizes) {
    expect_batch_bitwise_identical(*fused, first_records(n));
    expect_fused_matches_reference(*fused, first_records(n));
  }
}

TEST(ScoreBatch, FusedModelAllConsensusAndAllDisagreementBatches) {
  const auto fused = build_fused(true);
  const auto& body = fused->body();
  std::vector<data::Record> consensus_batch;
  std::vector<data::Record> disagreement_batch;
  for (std::size_t i = 0;
       i < batch_dataset().size() &&
       (consensus_batch.size() < 64 || disagreement_batch.size() < 64);
       ++i) {
    const data::Record& r = batch_dataset().record(i);
    if (body[0]->predict(r) == body[1]->predict(r)) {
      if (consensus_batch.size() < 64) consensus_batch.push_back(r);
    } else if (disagreement_batch.size() < 64) {
      disagreement_batch.push_back(r);
    }
  }
  ASSERT_EQ(consensus_batch.size(), 64u);
  ASSERT_EQ(disagreement_batch.size(), 64u);

  expect_batch_bitwise_identical(*fused, consensus_batch);
  expect_batch_bitwise_identical(*fused, disagreement_batch);
  expect_fused_matches_reference(*fused, consensus_batch);
  expect_fused_matches_reference(*fused, disagreement_batch);

  // Consensus rows must carry the consensus class; the batched gate must
  // never flip it (§3.2).
  const tensor::Matrix consensus_scores = fused->score_batch(consensus_batch);
  for (std::size_t r = 0; r < consensus_batch.size(); ++r) {
    EXPECT_EQ(tensor::argmax(consensus_scores.row(r)),
              body[0]->predict(consensus_batch[r]));
  }
}

TEST(ScoreBatch, FusedModelGateOffRunsHeadEverywhere) {
  const auto fused = build_fused(false);
  for (const std::size_t n : kBatchSizes) {
    expect_batch_bitwise_identical(*fused, first_records(n));
    expect_fused_matches_reference(*fused, first_records(n));
  }
}

TEST(ScoreBatch, PredictAllMatchesPerRecordPredict) {
  const Model& model = batch_pool().at(0);
  const std::vector<std::size_t> batched = model.predict_all(batch_dataset());
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(batched[i], model.predict(batch_dataset().record(i)));
  }
}

// --- calibrated batch-kernel regime coverage ---------------------------
// The planar kernel has distinct branches for correct/wrong predictions,
// sharp/flat miscalibration regimes and binary vs multiclass runner-up
// placement; each regime is forced below and pinned bitwise against the
// per-record path across batch sizes.

data::Dataset binary_dataset() {
  data::SyntheticConfig config = data::isic2019_config(1500, 31);
  config.name = "binary-isic";
  config.num_classes = 2;
  config.class_priors = {0.62, 0.38};
  return data::generate(config);
}

ArchitectureProfile regime_profile(double accuracy) {
  ArchitectureProfile profile;
  profile.name = "RegimeNet";
  profile.family = "RegimeNet";
  profile.parameter_count = 1;
  profile.accuracy = accuracy;
  profile.unfairness = {{"age", 0.30}, {"gender", 0.08}, {"site", 0.35}};
  return profile;
}

std::vector<data::Record> head_of(const data::Dataset& dataset,
                                  std::size_t n) {
  std::vector<data::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(dataset.record(i));
  return records;
}

/// Bit-identity across batch sizes plus a guarantee that the batch
/// actually exercises the wrong-prediction branch (argmax != label for
/// at least one row — the branch that used to heap-allocate a weight
/// vector per record).
void expect_regime_covered(const CalibratedModel& model,
                           const data::Dataset& dataset) {
  for (const std::size_t n : kBatchSizes) {
    expect_batch_bitwise_identical(model, head_of(dataset, n));
  }
  const std::vector<data::Record> records = head_of(dataset, 64);
  const tensor::Matrix batch = model.score_batch(records);
  std::size_t wrong = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto row = batch.row(r);
    const std::size_t argmax = static_cast<std::size_t>(std::distance(
        row.begin(), std::max_element(row.begin(), row.end())));
    if (argmax != records[r].label) ++wrong;
  }
  EXPECT_GT(wrong, 0u) << model.name()
                       << ": batch never hit the wrong-prediction branch";
}

TEST(ScoreBatch, CalibratedBinaryClassesBitIdentical) {
  const data::Dataset binary = binary_dataset();
  const CalibratedModel model(regime_profile(0.75), binary);
  ASSERT_EQ(model.num_classes(), 2u);
  expect_regime_covered(model, binary);
}

TEST(ScoreBatch, CalibratedForcedHesitantRegime) {
  // Every correct prediction flips to the flat-margin regime.
  CalibrationConfig config;
  config.hesitant_rate = 1.0;
  config.overconfident_rate = 0.0;
  const CalibratedModel multiclass(regime_profile(0.72), batch_dataset(),
                                   config);
  expect_regime_covered(multiclass, batch_dataset());
  const data::Dataset binary = binary_dataset();
  const CalibratedModel two(regime_profile(0.72), binary, config);
  expect_regime_covered(two, binary);
}

TEST(ScoreBatch, CalibratedForcedOverconfidentRegime) {
  // Every wrong prediction flips to the sharp-margin regime.
  CalibrationConfig config;
  config.hesitant_rate = 0.0;
  config.overconfident_rate = 1.0;
  const CalibratedModel multiclass(regime_profile(0.72), batch_dataset(),
                                   config);
  expect_regime_covered(multiclass, batch_dataset());
  const data::Dataset binary = binary_dataset();
  const CalibratedModel two(regime_profile(0.72), binary, config);
  expect_regime_covered(two, binary);
}

TEST(ScoreBatch, CalibratedRunnerUpRateExtremes) {
  // runner_up_rate 0 (always a decoy) and 1 (true class whenever wrong)
  // steer the multiclass runner-up branch through both arms.
  for (const double rate : {0.0, 1.0}) {
    CalibrationConfig config;
    config.runner_up_rate = rate;
    const CalibratedModel model(regime_profile(0.70), batch_dataset(),
                                config);
    expect_regime_covered(model, batch_dataset());
  }
}

TEST(ScoreBatch, CalibratedPartitionIndependence) {
  // A batch row is a pure function of its record: any partition of the
  // batch — including the row splits a wider worker pool would produce
  // under MUFFIN_THREADS — must reproduce the whole-batch rows bitwise.
  const Model& model = batch_pool().at(0);
  const std::vector<data::Record> records = head_of(batch_dataset(), 64);
  const tensor::Matrix whole = model.score_batch(records);
  const std::span<const data::Record> span(records);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{17}, std::size_t{64}}) {
    std::size_t row = 0;
    for (std::size_t i0 = 0; i0 < records.size(); i0 += chunk) {
      const std::size_t i1 = std::min(i0 + chunk, records.size());
      const tensor::Matrix part = model.score_batch(span.subspan(i0, i1 - i0));
      for (std::size_t r = 0; r < part.rows(); ++r, ++row) {
        for (std::size_t c = 0; c < part.cols(); ++c) {
          EXPECT_EQ(part(r, c), whole(row, c))
              << "chunk " << chunk << " row " << row << " col " << c;
        }
      }
    }
  }
}

TEST(FuseGatheredBatch, RowsMatchSingleRecordReference) {
  // The reference head is the float path; pin the float mode.
  const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
  const auto fused = build_fused(true);
  const nn::reference::MlpReference head(fused->head());
  const std::vector<data::Record> records = first_records(64);
  const std::size_t num_classes = fused->num_classes();
  const std::size_t body_size = fused->body().size();

  tensor::Matrix gathered(records.size(), body_size * num_classes);
  for (std::size_t m = 0; m < body_size; ++m) {
    const tensor::Matrix s = fused->body()[m]->score_batch(records);
    for (std::size_t i = 0; i < records.size(); ++i) {
      std::copy(s.row(i).begin(), s.row(i).end(),
                gathered.row(i).begin() + m * num_classes);
    }
  }
  for (const bool gate : {true, false}) {
    const core::FusedBatch batch = core::fuse_gathered_batch(
        gathered, fused->head(), body_size, num_classes, gate);
    ASSERT_EQ(batch.scores.rows(), records.size());
    std::size_t consensus_rows = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const ReferenceFuse reference = reference_fuse(
          gathered.row(i), head, body_size, num_classes, gate);
      EXPECT_EQ(batch.consensus[i], reference.consensus);
      if (reference.consensus) ++consensus_rows;
      for (std::size_t c = 0; c < num_classes; ++c) {
        EXPECT_EQ(batch.scores(i, c), reference.scores[c]);
      }
    }
    EXPECT_EQ(batch.head_rows, records.size() - consensus_rows);
    if (!gate) EXPECT_EQ(batch.head_rows, records.size());
  }
}

}  // namespace
}  // namespace muffin::models
