// Mlp <-> MUFA artifact round-trips and the frozen (mapped) contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "data/serialize.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "tensor/quant.h"

namespace muffin::nn {
namespace {

MlpSpec test_spec() {
  MlpSpec spec;
  spec.input_dim = 16;
  spec.hidden_dims = {18, 12};
  spec.output_dim = 8;
  spec.hidden_activation = Activation::Relu;
  spec.output_activation = Activation::Sigmoid;
  return spec;
}

Mlp init_mlp(std::uint64_t seed) {
  Mlp mlp(test_spec());
  SplitRng rng(seed);
  mlp.init(rng);
  return mlp;
}

tensor::Matrix random_batch(std::size_t rows, std::uint64_t seed) {
  SplitRng rng(seed);
  tensor::Matrix batch(rows, 16);
  for (double& v : batch.flat()) v = rng.normal(0.0, 1.0);
  return batch;
}

bool same_outputs(const Mlp& a, const Mlp& b, const tensor::Matrix& input) {
  const tensor::Matrix out_a = a.forward_batch_inference(input);
  const tensor::Matrix out_b = b.forward_batch_inference(input);
  return std::memcmp(out_a.flat().data(), out_b.flat().data(),
                     out_a.flat().size() * sizeof(double)) == 0;
}

TEST(MlpArtifact, HeapRoundTripIsExact) {
  const Mlp original = init_mlp(3);
  data::ArtifactWriter writer;
  original.save_artifact(writer, "head");
  const data::Artifact artifact = data::Artifact::from_bytes(writer.bytes());
  const Mlp restored = Mlp::from_artifact(artifact, "head");
  EXPECT_EQ(restored.spec(), original.spec());
  EXPECT_FALSE(restored.mapped());
  EXPECT_TRUE(same_outputs(original, restored, random_batch(9, 10)));
}

TEST(MlpArtifact, TwoHeadsShareOneArtifactUnderPrefixes) {
  const Mlp a = init_mlp(5);
  const Mlp b = init_mlp(6);
  data::ArtifactWriter writer;
  a.save_artifact(writer, "a");
  b.save_artifact(writer, "b");
  const data::Artifact artifact = data::Artifact::from_bytes(writer.bytes());
  EXPECT_TRUE(same_outputs(a, Mlp::from_artifact(artifact, "a"),
                           random_batch(5, 20)));
  EXPECT_TRUE(same_outputs(b, Mlp::from_artifact(artifact, "b"),
                           random_batch(5, 21)));
  EXPECT_THROW((void)Mlp::from_artifact(artifact, "c"), Error);
}

TEST(MlpArtifact, MappedHeadIsFrozenButScoresExactly) {
  const std::string path = testing::TempDir() + "/mlp_frozen.mufa";
  const Mlp original = init_mlp(7);
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head");
    writer.write_file(path);
  }
  const data::Artifact artifact = data::Artifact::map_file(path);
  Mlp mapped = Mlp::map_artifact(artifact, "head");
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.parameter_count(), original.parameter_count());
  const tensor::Matrix batch = random_batch(7, 30);
  EXPECT_TRUE(same_outputs(original, mapped, batch));
  // Single-record inference works too.
  const tensor::Vector single = mapped.forward_inference(batch.row(0));
  EXPECT_EQ(single.size(), 8u);

  // Every training entry point throws on a frozen network.
  EXPECT_THROW((void)mapped.forward_batch(batch), Error);
  EXPECT_THROW((void)mapped.params(), Error);
  SplitRng rng(8);
  EXPECT_THROW(mapped.init(rng), Error);
  std::remove(path.c_str());
}

TEST(MlpArtifact, CopiesOfMappedHeadShareThePages) {
  const std::string path = testing::TempDir() + "/mlp_share.mufa";
  const Mlp original = init_mlp(9);
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head");
    writer.write_file(path);
  }
  obs::Gauge& gauge = obs::registry().gauge("data.mapped_artifact_bytes");
  const std::int64_t before = gauge.value();
  std::int64_t mapped_size = 0;
  {
    Mlp copy = [&]() {
      const data::Artifact artifact = data::Artifact::map_file(path);
      mapped_size = static_cast<std::int64_t>(artifact.byte_size());
      const Mlp mapped = Mlp::map_artifact(artifact, "head");
      return mapped;  // copies (worker-head clones) keep the pages alive
    }();
    EXPECT_TRUE(copy.mapped());
    // The artifact object is gone; the copy's keepalive holds the mapping
    // and it still scores correctly.
    EXPECT_EQ(gauge.value() - before, mapped_size);
    EXPECT_TRUE(same_outputs(original, copy, random_batch(4, 40)));
    const Mlp second = copy;  // NOLINT: intentional copy
    EXPECT_TRUE(second.mapped());
    EXPECT_EQ(gauge.value() - before, mapped_size);  // shared, not re-mapped
  }
  EXPECT_EQ(gauge.value(), before);  // last holder unmapped
  std::remove(path.c_str());
}

TEST(MlpArtifact, MappedHeadCanBeResaved) {
  // save_artifact reads through weight spans, which work on mapped
  // layers: re-saving a served model round-trips exactly.
  const std::string path = testing::TempDir() + "/mlp_resave.mufa";
  const Mlp original = init_mlp(11);
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head");
    writer.write_file(path);
  }
  const data::Artifact artifact = data::Artifact::map_file(path);
  const Mlp mapped = Mlp::map_artifact(artifact, "head");
  data::ArtifactWriter resave;
  mapped.save_artifact(resave, "head");
  const Mlp restored =
      Mlp::from_artifact(data::Artifact::from_bytes(resave.bytes()), "head");
  EXPECT_TRUE(same_outputs(original, restored, random_batch(6, 50)));
  std::remove(path.c_str());
}

TEST(MlpArtifact, MalformedSpecOrShapesThrow) {
  const Mlp original = init_mlp(13);

  // Spec present but a weight tensor has the wrong shape.
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head");
    // Rebuild an artifact where head.w0 is renamed away via a fresh
    // writer: drop the tensor by writing everything except it.
    const data::Artifact good = data::Artifact::from_bytes(writer.bytes());
    data::ArtifactWriter hostile;
    for (const data::ArtifactTensor& t : good.tensors()) {
      if (t.name == "head.w0") continue;
      hostile.add_f64(t.name, t.rows, t.cols, t.f64());
    }
    EXPECT_THROW(
        (void)Mlp::from_artifact(
            data::Artifact::from_bytes(hostile.bytes()), "head"),
        Error);
  }

  // Spec with a non-integer field.
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "bad");
    const data::Artifact good = data::Artifact::from_bytes(writer.bytes());
    data::ArtifactWriter hostile;
    for (const data::ArtifactTensor& t : good.tensors()) {
      if (t.name == "bad.spec") {
        std::vector<double> spec(t.f64().begin(), t.f64().end());
        spec[0] = 16.5;  // fractional input_dim
        hostile.add_f64(t.name, t.rows, t.cols, spec);
      } else {
        hostile.add_f64(t.name, t.rows, t.cols, t.f64());
      }
    }
    EXPECT_THROW(
        (void)Mlp::from_artifact(data::Artifact::from_bytes(hostile.bytes()),
                                 "bad"),
        Error);
  }

  // Spec with an unknown activation id.
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "act");
    const data::Artifact good = data::Artifact::from_bytes(writer.bytes());
    data::ArtifactWriter hostile;
    for (const data::ArtifactTensor& t : good.tensors()) {
      if (t.name == "act.spec") {
        std::vector<double> spec(t.f64().begin(), t.f64().end());
        spec[2] = 99.0;  // hidden activation id out of range
        hostile.add_f64(t.name, t.rows, t.cols, spec);
      } else {
        hostile.add_f64(t.name, t.rows, t.cols, t.f64());
      }
    }
    EXPECT_THROW(
        (void)Mlp::from_artifact(data::Artifact::from_bytes(hostile.bytes()),
                                 "act"),
        Error);
  }
}

TEST(MlpArtifact, Bf16ArtifactRoundTripsWithinQuantizationError) {
  const Mlp original = init_mlp(19);
  data::ArtifactWriter writer;
  original.save_artifact(writer, "head", data::TensorDtype::Bf16);
  const data::Artifact artifact = data::Artifact::from_bytes(writer.bytes());
  // The weight planes really are stored quantized, not as f64.
  EXPECT_EQ(artifact.tensor("head.w0").dtype, data::TensorDtype::Bf16);
  const Mlp restored = Mlp::from_artifact(artifact, "head");
  EXPECT_EQ(restored.spec(), original.spec());
  const tensor::Matrix batch = random_batch(9, 70);
  const tensor::Matrix a = original.forward_batch_inference(batch);
  const tensor::Matrix b = restored.forward_batch_inference(batch);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    // bf16 keeps ~8 mantissa bits; sigmoid outputs stay within a loose
    // absolute tolerance of the full-precision network.
    EXPECT_NEAR(a.flat()[i], b.flat()[i], 0.05) << "output " << i;
  }
}

TEST(MlpArtifact, I8ArtifactCarriesScalesAndRoundTrips) {
  const Mlp original = init_mlp(23);
  data::ArtifactWriter writer;
  original.save_artifact(writer, "head", data::TensorDtype::I8);
  const data::Artifact artifact = data::Artifact::from_bytes(writer.bytes());
  EXPECT_EQ(artifact.tensor("head.w0").dtype, data::TensorDtype::I8);
  // Per-layer symmetric scales ride along ("<prefix>.s<i>", 1x2 f64).
  const data::ArtifactTensor& scales = artifact.tensor("head.s0");
  EXPECT_EQ(scales.dtype, data::TensorDtype::F64);
  EXPECT_EQ(scales.rows, 1u);
  EXPECT_EQ(scales.cols, 2u);
  const Mlp restored = Mlp::from_artifact(artifact, "head");
  EXPECT_EQ(restored.spec(), original.spec());
  const tensor::Matrix batch = random_batch(9, 80);
  const tensor::Matrix a = original.forward_batch_inference(batch);
  const tensor::Matrix b = restored.forward_batch_inference(batch);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], 0.1) << "output " << i;
  }
}

TEST(MlpArtifact, MapArtifactFallsBackToHeapForQuantizedTensors) {
  const std::string path = testing::TempDir() + "/mlp_quant_map.mufa";
  const Mlp original = init_mlp(29);
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head", data::TensorDtype::I8);
    writer.write_file(path);
  }
  obs::Gauge& gauge = obs::registry().gauge("data.mapped_artifact_bytes");
  const std::int64_t before = gauge.value();
  {
    const data::Artifact artifact = data::Artifact::map_file(path);
    const Mlp loaded = Mlp::map_artifact(artifact, "head");
    // Quantized tensors cannot be adopted zero-copy: the fallback
    // dequantizes onto the heap, so the result is a normal trainable Mlp
    // that does not pin the mapping.
    EXPECT_FALSE(loaded.mapped());
    EXPECT_EQ(loaded.spec(), original.spec());
  }
  EXPECT_EQ(gauge.value(), before);
  std::remove(path.c_str());
}

TEST(MlpArtifact, QuantModesScoreIdenticallyFromHeapAndMap) {
  const std::string path = testing::TempDir() + "/mlp_quant.mufa";
  const Mlp original = init_mlp(17);
  {
    data::ArtifactWriter writer;
    original.save_artifact(writer, "head");
    writer.write_file(path);
  }
  const data::Artifact artifact = data::Artifact::map_file(path);
  const Mlp mapped = Mlp::map_artifact(artifact, "head");
  const tensor::Matrix batch = random_batch(12, 60);
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Off, tensor::QuantMode::Bf16,
        tensor::QuantMode::Int8}) {
    const tensor::ScopedQuantMode pin(mode);
    EXPECT_TRUE(same_outputs(original, mapped, batch))
        << tensor::quant_mode_name(mode);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace muffin::nn
