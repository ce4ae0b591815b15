#include "nn/linear.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace muffin::nn {
namespace {

/// One sample as a 1-row batch.
tensor::Matrix row(std::initializer_list<double> values) {
  return tensor::Matrix{values};
}

TEST(Linear, ForwardComputesAffineMap) {
  Linear layer(2, 2);
  layer.weights() = tensor::Matrix{{1.0, 2.0}, {3.0, 4.0}};
  layer.bias() = {0.5, -0.5};
  const tensor::Matrix out = layer.forward_batch(row({1.0, 1.0}));
  EXPECT_DOUBLE_EQ(out(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(out(0, 1), 6.5);
}

TEST(Linear, Dimensions) {
  Linear layer(3, 5);
  EXPECT_EQ(layer.input_dim(), 3u);
  EXPECT_EQ(layer.output_dim(), 5u);
  EXPECT_EQ(layer.parameter_count(), 3u * 5u + 5u);
}

TEST(Linear, RejectsZeroDims) {
  EXPECT_THROW(Linear(0, 1), Error);
  EXPECT_THROW(Linear(1, 0), Error);
}

TEST(Linear, InputSizeMismatchThrows) {
  Linear layer(3, 2);
  EXPECT_THROW((void)layer.forward_batch(row({1.0, 2.0})), Error);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Linear layer(2, 2);
  EXPECT_THROW((void)layer.backward_batch(row({1.0, 1.0})), Error);
}

TEST(Linear, GradientsAccumulateAcrossSamples) {
  Linear layer(1, 1);
  layer.weights() = tensor::Matrix{{1.0}};
  layer.bias() = {0.0};
  layer.zero_grad();
  (void)layer.forward_batch(row({2.0}));
  (void)layer.backward_batch(row({1.0}));
  (void)layer.forward_batch(row({3.0}));
  (void)layer.backward_batch(row({1.0}));
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 5.0);  // 2 + 3
  EXPECT_DOUBLE_EQ(layer.bias_grad()[0], 2.0);
}

TEST(Linear, ZeroGradClears) {
  Linear layer(1, 1);
  (void)layer.forward_batch(row({1.0}));
  (void)layer.backward_batch(row({1.0}));
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(layer.bias_grad()[0], 0.0);
}

TEST(Linear, XavierInitBounded) {
  SplitRng rng(1);
  Linear layer(50, 50);
  layer.init_xavier(rng);
  const double bound = std::sqrt(6.0 / 100.0);
  for (const double w : layer.weights().flat()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
  for (const double b : layer.bias()) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Linear, HeInitVariance) {
  SplitRng rng(2);
  Linear layer(200, 100);
  layer.init_he(rng);
  std::vector<double> weights(layer.weights().flat().begin(),
                              layer.weights().flat().end());
  EXPECT_NEAR(stddev(weights), std::sqrt(2.0 / 200.0), 0.005);
  EXPECT_NEAR(mean(weights), 0.0, 0.005);
}

TEST(Linear, ParamsExposeWeightsAndBias) {
  Linear layer(2, 3);
  auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value.size(), 6u);
  EXPECT_EQ(params[1].value.size(), 3u);
  params[0].value[0] = 42.0;
  EXPECT_DOUBLE_EQ(layer.weights()(0, 0), 42.0);
}

}  // namespace
}  // namespace muffin::nn
