#include "nn/activation.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace muffin::nn {

namespace {
constexpr double kLeakySlope = 0.01;
}

double activate(Activation kind, double x) {
  switch (kind) {
    case Activation::Identity:
      return x;
    case Activation::Relu:
      return x > 0.0 ? x : 0.0;
    case Activation::LeakyRelu:
      return x > 0.0 ? x : kLeakySlope * x;
    case Activation::Tanh:
      return std::tanh(x);
    case Activation::Sigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  throw Error("unknown activation kind");
}

double activate_grad(Activation kind, double x) {
  switch (kind) {
    case Activation::Identity:
      return 1.0;
    case Activation::Relu:
      return x > 0.0 ? 1.0 : 0.0;
    case Activation::LeakyRelu:
      return x > 0.0 ? 1.0 : kLeakySlope;
    case Activation::Tanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::Sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  throw Error("unknown activation kind");
}

std::string to_string(Activation kind) {
  switch (kind) {
    case Activation::Identity:
      return "identity";
    case Activation::Relu:
      return "relu";
    case Activation::LeakyRelu:
      return "leaky_relu";
    case Activation::Tanh:
      return "tanh";
    case Activation::Sigmoid:
      return "sigmoid";
  }
  throw Error("unknown activation kind");
}

Activation activation_from_string(const std::string& name) {
  if (name == "identity") return Activation::Identity;
  if (name == "relu") return Activation::Relu;
  if (name == "leaky_relu") return Activation::LeakyRelu;
  if (name == "tanh") return Activation::Tanh;
  if (name == "sigmoid") return Activation::Sigmoid;
  throw Error("unknown activation name: " + name);
}

const std::vector<Activation>& searchable_activations() {
  static const std::vector<Activation> kAll = {
      Activation::Relu, Activation::LeakyRelu, Activation::Tanh,
      Activation::Sigmoid};
  return kAll;
}

ActivationLayer::ActivationLayer(Activation kind, std::size_t dim)
    : kind_(kind), dim_(dim) {
  MUFFIN_REQUIRE(dim > 0, "activation layer dimension must be positive");
}

const tensor::Matrix& ActivationLayer::forward_batch(
    const tensor::Matrix& input) {
  forward_batch_inference_into(input, output_);
  return output_;
}

void ActivationLayer::forward_batch_inference_into(
    const tensor::Matrix& input, tensor::Matrix& output) const {
  MUFFIN_REQUIRE(input.cols() == dim_, "activation batch input size mismatch");
  output.resize_for_overwrite(input.rows(), dim_);
  const auto in = input.flat();
  auto out = output.flat();
  // Same per-element arithmetic as activate(); the switch is hoisted out
  // of the loop so each kind gets a tight elementwise pass.
  switch (kind_) {
    case Activation::Identity:
      std::copy(in.begin(), in.end(), out.begin());
      break;
    case Activation::Relu:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0 ? in[i] : 0.0;
      }
      break;
    case Activation::LeakyRelu:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0 ? in[i] : kLeakySlope * in[i];
      }
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = 1.0 / (1.0 + std::exp(-in[i]));
      }
      break;
  }
}

const tensor::Matrix& ActivationLayer::backward_batch(
    const tensor::Matrix& grad_output) {
  MUFFIN_REQUIRE(grad_output.cols() == dim_,
                 "activation batch gradient size mismatch");
  MUFFIN_REQUIRE(output_.rows() == grad_output.rows() &&
                     output_.cols() == dim_,
                 "batched backward called before forward_batch");
  grad_input_.resize_for_overwrite(grad_output.rows(), dim_);
  const auto g = grad_output.flat();
  const auto y = output_.flat();
  auto out = grad_input_.flat();
  // activate_grad()'s per-element arithmetic with the activation value
  // read from y instead of recomputed from x; switch hoisted.
  switch (kind_) {
    case Activation::Identity:
      std::copy(g.begin(), g.end(), out.begin());
      break;
    case Activation::Relu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (y[i] > 0.0 ? 1.0 : 0.0);
      }
      break;
    case Activation::LeakyRelu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (y[i] > 0.0 ? 1.0 : kLeakySlope);
      }
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (1.0 - y[i] * y[i]);
      }
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (y[i] * (1.0 - y[i]));
      }
      break;
  }
  return grad_input_;
}

}  // namespace muffin::nn
