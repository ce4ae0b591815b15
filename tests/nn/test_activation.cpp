#include "nn/activation.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace muffin::nn {
namespace {

TEST(Activation, ReluValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::Relu, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(activate(Activation::Relu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::Relu, 0.0), 0.0);
}

TEST(Activation, LeakyReluValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::LeakyRelu, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(activate(Activation::LeakyRelu, -2.0), -0.02);
}

TEST(Activation, SigmoidBounds) {
  EXPECT_NEAR(activate(Activation::Sigmoid, 0.0), 0.5, 1e-12);
  EXPECT_GT(activate(Activation::Sigmoid, 10.0), 0.9999);
  EXPECT_LT(activate(Activation::Sigmoid, -10.0), 0.0001);
}

TEST(Activation, TanhOddFunction) {
  for (const double x : {0.1, 0.7, 2.0}) {
    EXPECT_NEAR(activate(Activation::Tanh, -x),
                -activate(Activation::Tanh, x), 1e-12);
  }
}

TEST(Activation, IdentityPassThrough) {
  EXPECT_DOUBLE_EQ(activate(Activation::Identity, -3.7), -3.7);
  EXPECT_DOUBLE_EQ(activate_grad(Activation::Identity, 5.0), 1.0);
}

TEST(Activation, StringRoundTrip) {
  for (const Activation a :
       {Activation::Identity, Activation::Relu, Activation::LeakyRelu,
        Activation::Tanh, Activation::Sigmoid}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
}

TEST(Activation, UnknownNameThrows) {
  EXPECT_THROW((void)activation_from_string("swish"), Error);
}

TEST(Activation, SearchableExcludesIdentity) {
  for (const Activation a : searchable_activations()) {
    EXPECT_NE(a, Activation::Identity);
  }
  EXPECT_EQ(searchable_activations().size(), 4u);
}

TEST(ActivationLayer, ForwardAppliesElementwise) {
  ActivationLayer layer(Activation::Relu, 3);
  const tensor::Matrix out =
      layer.forward_batch(tensor::Matrix{{-1.0, 0.5, 2.0}});
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(out(0, 2), 2.0);
}

TEST(ActivationLayer, DimsAndParamFree) {
  ActivationLayer layer(Activation::Tanh, 4);
  EXPECT_EQ(layer.input_dim(), 4u);
  EXPECT_EQ(layer.output_dim(), 4u);
  EXPECT_TRUE(layer.params().empty());
  EXPECT_EQ(layer.parameter_count(), 0u);
}

TEST(ActivationLayer, RejectsSizeMismatch) {
  ActivationLayer layer(Activation::Relu, 2);
  EXPECT_THROW((void)layer.forward_batch(tensor::Matrix{{1.0}}), Error);
}

TEST(ActivationLayer, BackwardBeforeForwardThrows) {
  ActivationLayer layer(Activation::Relu, 2);
  EXPECT_THROW((void)layer.backward_batch(tensor::Matrix{{1.0, 1.0}}), Error);
}

TEST(ActivationLayer, RejectsZeroDim) {
  EXPECT_THROW(ActivationLayer(Activation::Relu, 0), Error);
}

}  // namespace
}  // namespace muffin::nn
