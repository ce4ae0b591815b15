// Bit-identity of the batch entries against independent per-sample
// references.
//
// The batch entries (forward_batch / backward_batch /
// forward_batch_inference) are the library's only layer implementations;
// a single record is a 1-row batch. On an n-row batch they must equal n
// per-sample reference computations (per_sample_reference.h, written from
// the weights alone), bit for bit: same operation order within each row,
// same accumulation order across rows. These suites pin that for every
// layer type, every activation, the full Mlp and the training gradient
// path, at batch sizes {1, 7, 64}.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "per_sample_reference.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace muffin::nn {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 64};

tensor::Matrix random_batch(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  SplitRng rng(seed);
  tensor::Matrix batch(rows, cols);
  for (double& v : batch.flat()) v = rng.normal(0.0, 1.3);
  return batch;
}

void expect_rows_bitwise_equal(const tensor::Matrix& batch,
                               const tensor::Vector& reference,
                               std::size_t row) {
  ASSERT_EQ(batch.cols(), reference.size());
  for (std::size_t c = 0; c < reference.size(); ++c) {
    // EXPECT_DOUBLE_EQ would accept 4-ulp drift; bit identity means exact.
    EXPECT_EQ(batch(row, c), reference[c])
        << "row " << row << " col " << c;
  }
}

// ---------------------------------------------------------------- Linear

TEST(LinearBatch, ForwardBatchMatchesPerSampleBitwise) {
  for (const std::size_t n : kBatchSizes) {
    Linear batched(5, 3);
    SplitRng rng(17);
    batched.init_xavier(rng);

    const tensor::Matrix input = random_batch(n, 5, 100 + n);
    const tensor::Matrix out = batched.forward_batch(input);
    ASSERT_EQ(out.rows(), n);
    for (std::size_t r = 0; r < n; ++r) {
      expect_rows_bitwise_equal(
          out, reference::linear_forward(batched, input.row(r)), r);
    }
  }
}

TEST(LinearBatch, ForwardBatchInferenceIsConstAndBitwiseEqual) {
  // Inference == training bitwise is the float contract; quantized modes
  // are covered by tests/models/test_quant_parity.cpp.
  const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
  Linear layer(4, 6);
  SplitRng rng(23);
  layer.init_he(rng);
  const Linear& const_layer = layer;
  const tensor::Matrix input = random_batch(7, 4, 7);
  const tensor::Matrix out = const_layer.forward_batch_inference(input);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    expect_rows_bitwise_equal(
        out, reference::linear_forward(layer, input.row(r)), r);
  }
}

TEST(LinearBatch, BackwardBatchGradientsMatchPerSampleBitwise) {
  for (const std::size_t n : kBatchSizes) {
    Linear batched(5, 3);
    SplitRng rng(31);
    batched.init_xavier(rng);

    const tensor::Matrix input = random_batch(n, 5, 200 + n);
    tensor::Matrix grad_out = random_batch(n, 3, 300 + n);
    grad_out(0, 1) = 0.0;  // exercise the zero-gradient skip

    // Reference: per-sample backward accumulation.
    tensor::Matrix ref_weight_grad(3, 5);
    tensor::Vector ref_bias_grad(3, 0.0);
    std::vector<tensor::Vector> ref_grad_in;
    for (std::size_t r = 0; r < n; ++r) {
      ref_grad_in.push_back(reference::linear_backward(
          batched.weight_span(), input.row(r), grad_out.row(r),
          ref_weight_grad.flat(), ref_bias_grad));
    }

    batched.zero_grad();
    (void)batched.forward_batch(input);
    const tensor::Matrix grad_in = batched.backward_batch(grad_out);

    for (std::size_t r = 0; r < n; ++r) {
      expect_rows_bitwise_equal(grad_in, ref_grad_in[r], r);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(batched.bias_grad()[i], ref_bias_grad[i]);
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(batched.weight_grad()(i, j), ref_weight_grad(i, j));
      }
    }
  }
}

TEST(LinearBatch, BackwardBeforeForwardThrows) {
  Linear layer(2, 2);
  EXPECT_THROW((void)layer.backward_batch(tensor::Matrix(3, 2)), Error);
}

TEST(LinearBatch, ShapeMismatchThrows) {
  Linear layer(3, 2);
  EXPECT_THROW((void)layer.forward_batch(tensor::Matrix(4, 2)), Error);
  EXPECT_THROW((void)layer.forward_batch_inference(tensor::Matrix(4, 2)),
               Error);
}

// ------------------------------------------------------------ Activation

TEST(ActivationBatch, AllKindsMatchPerSampleBitwise) {
  for (const Activation kind :
       {Activation::Identity, Activation::Relu, Activation::LeakyRelu,
        Activation::Tanh, Activation::Sigmoid}) {
    for (const std::size_t n : kBatchSizes) {
      ActivationLayer batched(kind, 6);
      const tensor::Matrix input = random_batch(n, 6, 400 + n);
      const tensor::Matrix grad_out = random_batch(n, 6, 500 + n);

      const tensor::Matrix out = batched.forward_batch(input);
      const tensor::Matrix grad_in = batched.backward_batch(grad_out);
      const tensor::Matrix inference = batched.forward_batch_inference(input);
      for (std::size_t r = 0; r < n; ++r) {
        const tensor::Vector reference_out =
            reference::activation_forward(kind, input.row(r));
        expect_rows_bitwise_equal(out, reference_out, r);
        expect_rows_bitwise_equal(inference, reference_out, r);
        expect_rows_bitwise_equal(
            grad_in,
            reference::activation_backward(kind, input.row(r),
                                           grad_out.row(r)),
            r);
      }
    }
  }
}

// ------------------------------------------------------------------- Mlp

MlpSpec head_like_spec(Activation hidden, Activation output) {
  MlpSpec spec;
  spec.input_dim = 16;
  spec.hidden_dims = {18, 12};
  spec.output_dim = 8;
  spec.hidden_activation = hidden;
  spec.output_activation = output;
  return spec;
}

TEST(MlpBatch, ForwardBatchMatchesPerSampleBitwise) {
  // Pins the float contract (inference == training bitwise); quantized
  // inference parity lives in tests/models/test_quant_parity.cpp.
  const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
  for (const Activation hidden : searchable_activations()) {
    Mlp mlp(head_like_spec(hidden, Activation::Sigmoid));
    SplitRng rng(41);
    mlp.init(rng);
    const reference::MlpReference per_sample(mlp);
    for (const std::size_t n : kBatchSizes) {
      const tensor::Matrix input = random_batch(n, 16, 600 + n);
      const tensor::Matrix out = mlp.forward_batch(input);
      const tensor::Matrix inference = mlp.forward_batch_inference(input);
      for (std::size_t r = 0; r < n; ++r) {
        const tensor::Vector reference = per_sample.forward(input.row(r));
        expect_rows_bitwise_equal(out, reference, r);
        expect_rows_bitwise_equal(inference, reference, r);
        const tensor::Vector single = mlp.forward_inference(input.row(r));
        ASSERT_EQ(single.size(), reference.size());
        for (std::size_t k = 0; k < single.size(); ++k) {
          EXPECT_EQ(single[k], reference[k]);
        }
      }
    }
  }
}

TEST(MlpBatch, PredictIsConstAndMatchesForward) {
  Mlp mlp(head_like_spec(Activation::Relu, Activation::Sigmoid));
  SplitRng rng(43);
  mlp.init(rng);
  const Mlp& const_mlp = mlp;
  const reference::MlpReference per_sample(mlp);
  const tensor::Matrix input = random_batch(7, 16, 77);
  const std::vector<std::size_t> batched = const_mlp.predict_batch(input);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    EXPECT_EQ(batched[r], const_mlp.predict(input.row(r)));
    EXPECT_EQ(batched[r], tensor::argmax(per_sample.forward(input.row(r))));
  }
}

TEST(MlpBatch, BackwardBatchGradientsMatchPerSampleBitwise) {
  for (const std::size_t n : kBatchSizes) {
    Mlp batched(head_like_spec(Activation::Tanh, Activation::Sigmoid));
    SplitRng rng(47);
    batched.init(rng);
    const reference::MlpReference per_sample(batched);

    const tensor::Matrix input = random_batch(n, 16, 700 + n);
    const tensor::Matrix grad_out = random_batch(n, 8, 800 + n);

    reference::MlpGrads ref_grads = per_sample.zero_grads();
    std::vector<tensor::Vector> ref_grad_in;
    for (std::size_t r = 0; r < n; ++r) {
      ref_grad_in.push_back(per_sample.forward_backward(
          input.row(r), grad_out.row(r), ref_grads));
    }

    batched.zero_grad();
    (void)batched.forward_batch(input);
    const tensor::Matrix grad_in = batched.backward_batch(grad_out);

    for (std::size_t r = 0; r < n; ++r) {
      expect_rows_bitwise_equal(grad_in, ref_grad_in[r], r);
    }
    auto batched_params = batched.params();
    ASSERT_EQ(batched_params.size(), ref_grads.size());
    for (std::size_t p = 0; p < batched_params.size(); ++p) {
      ASSERT_EQ(batched_params[p].grad.size(), ref_grads[p].size());
      for (std::size_t i = 0; i < batched_params[p].grad.size(); ++i) {
        EXPECT_EQ(batched_params[p].grad[i], ref_grads[p][i])
            << "param block " << p << " element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace muffin::nn
