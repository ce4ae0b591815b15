#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::nn {
namespace {

/// gradient_into a fresh vector prefilled with a sentinel, so a test sees
/// every element the loss writes (zeros included).
tensor::Vector gradient(const Loss& loss, std::span<const double> prediction,
                        std::span<const double> target, double weight) {
  tensor::Vector out(prediction.size(), 7.0);
  loss.gradient_into(prediction, target, weight, out);
  return out;
}

TEST(WeightedMse, PerfectPredictionIsZero) {
  const WeightedMse loss;
  const tensor::Vector target = tensor::one_hot(1, 4);
  EXPECT_DOUBLE_EQ(loss.value(target, target, 3.0), 0.0);
}

TEST(WeightedMse, KnownValue) {
  const WeightedMse loss;
  const tensor::Vector pred = {1.0, 0.0};
  const tensor::Vector target = {0.0, 0.0};
  // mean squared error = (1 + 0)/2 = 0.5; weight 2 -> 1.0.
  EXPECT_DOUBLE_EQ(loss.value(pred, target, 2.0), 1.0);
}

TEST(WeightedMse, WeightScalesLinearly) {
  const WeightedMse loss;
  const tensor::Vector pred = {0.3, 0.7};
  const tensor::Vector target = {0.0, 1.0};
  const double base = loss.value(pred, target, 1.0);
  EXPECT_NEAR(loss.value(pred, target, 2.5), 2.5 * base, 1e-12);
  const tensor::Vector g1 = gradient(loss, pred, target, 1.0);
  const tensor::Vector g2 = gradient(loss, pred, target, 2.5);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g2[i], 2.5 * g1[i], 1e-12);
  }
}

TEST(WeightedMse, ZeroWeightKillsGradient) {
  const WeightedMse loss;
  const tensor::Vector pred = {0.9, 0.1};
  const tensor::Vector target = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(loss.value(pred, target, 0.0), 0.0);
  for (const double g : gradient(loss, pred, target, 0.0)) {
    EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

TEST(WeightedMse, RejectsShapeMismatch) {
  const WeightedMse loss;
  const tensor::Vector pred = {0.5};
  const tensor::Vector target = {0.5, 0.5};
  EXPECT_THROW((void)loss.value(pred, target, 1.0), Error);
  EXPECT_THROW((void)gradient(loss, pred, target, 1.0), Error);
  tensor::Vector short_out(1);
  EXPECT_THROW(loss.gradient_into(target, target, 1.0, short_out), Error);
}

TEST(WeightedCrossEntropy, ConfidentCorrectIsSmall) {
  const WeightedCrossEntropy loss;
  const tensor::Vector target = tensor::one_hot(0, 3);
  const tensor::Vector good = {0.99, 0.005, 0.005};
  const tensor::Vector bad = {0.05, 0.9, 0.05};
  EXPECT_LT(loss.value(good, target, 1.0), loss.value(bad, target, 1.0));
}

TEST(WeightedCrossEntropy, GradientOnlyOnTargetClasses) {
  const WeightedCrossEntropy loss;
  const tensor::Vector target = tensor::one_hot(1, 3);
  const tensor::Vector pred = {0.2, 0.5, 0.3};
  const tensor::Vector grad = gradient(loss, pred, target, 1.0);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_LT(grad[1], 0.0);  // pushes p(target) up
  EXPECT_DOUBLE_EQ(grad[2], 0.0);
}

TEST(WeightedCrossEntropy, SurvivesZeroProbability) {
  const WeightedCrossEntropy loss;
  const tensor::Vector target = tensor::one_hot(0, 2);
  const tensor::Vector pred = {0.0, 1.0};
  const double value = loss.value(pred, target, 1.0);
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_GT(value, 10.0);  // very wrong, very large, not inf
}

TEST(Losses, MseDecreasesTowardTarget) {
  const WeightedMse loss;
  const tensor::Vector target = tensor::one_hot(0, 3);
  tensor::Vector pred = {0.4, 0.3, 0.3};
  const double before = loss.value(pred, target, 1.0);
  // One explicit gradient-descent step must reduce the loss.
  const tensor::Vector grad = gradient(loss, pred, target, 1.0);
  for (std::size_t i = 0; i < pred.size(); ++i) pred[i] -= 0.1 * grad[i];
  EXPECT_LT(loss.value(pred, target, 1.0), before);
}

}  // namespace
}  // namespace muffin::nn
