// Per-sample reference implementations of the nn layers for the contract
// tests. The library has one implementation per pass (the batch entries);
// these loops are the second, independent one: written from the weights
// alone (Linear::weight_span / bias_span, or Mlp::params), one sample at a
// time, never calling a batch kernel or a tensor:: GEMM. The batch entries
// must match them bit for bit, which pins the per-element arithmetic and
// the accumulation order:
//
//  * linear forward: each output accumulates W[i][j] * x[j] over ascending
//    j from 0.0, then adds the bias;
//  * linear backward: bias and weight gradients accumulate sample by
//    sample, a zero output gradient skips its weight row, and the input
//    gradient accumulates W[i][j] * g[i] over ascending i (zeros skipped);
//  * activations: activate / activate_grad, element by element.
#pragma once

#include <span>
#include <vector>

#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace muffin::nn::reference {

/// y = W x + b for one sample; `w` is row-major (out x in).
inline tensor::Vector linear_forward(std::span<const double> w,
                                     std::span<const double> b,
                                     std::span<const double> x) {
  const std::size_t out = b.size();
  const std::size_t in = x.size();
  tensor::Vector y(out);
  for (std::size_t i = 0; i < out; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < in; ++j) acc += w[i * in + j] * x[j];
    y[i] = acc + b[i];
  }
  return y;
}

inline tensor::Vector linear_forward(const Linear& layer,
                                     std::span<const double> x) {
  return linear_forward(layer.weight_span(), layer.bias_span(), x);
}

/// One sample's backward through y = W x + b: accumulates into
/// `weight_grad` (row-major, out x in) and `bias_grad`, returns dL/dx.
inline tensor::Vector linear_backward(std::span<const double> w,
                                      std::span<const double> x,
                                      std::span<const double> g,
                                      std::span<double> weight_grad,
                                      std::span<double> bias_grad) {
  const std::size_t out = g.size();
  const std::size_t in = x.size();
  for (std::size_t i = 0; i < out; ++i) {
    bias_grad[i] += g[i];
    if (g[i] == 0.0) continue;
    for (std::size_t j = 0; j < in; ++j) {
      weight_grad[i * in + j] += g[i] * x[j];
    }
  }
  tensor::Vector grad_x(in, 0.0);
  for (std::size_t i = 0; i < out; ++i) {
    if (g[i] == 0.0) continue;
    for (std::size_t j = 0; j < in; ++j) grad_x[j] += w[i * in + j] * g[i];
  }
  return grad_x;
}

inline tensor::Vector activation_forward(Activation kind,
                                         std::span<const double> x) {
  tensor::Vector y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = activate(kind, x[i]);
  return y;
}

/// dL/dx given the pre-activation input `x` and dL/dy `g`.
inline tensor::Vector activation_backward(Activation kind,
                                          std::span<const double> x,
                                          std::span<const double> g) {
  tensor::Vector grad_x(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    grad_x[i] = g[i] * activate_grad(kind, x[i]);
  }
  return grad_x;
}

/// Gradient accumulators laid out like Mlp::params(): [W0, b0, W1, b1, ...].
using MlpGrads = std::vector<std::vector<double>>;

/// A per-sample Mlp: the weights of `mlp` (copied out of params(), so a
/// later change to `mlp` does not reach it) and its spec.
class MlpReference {
 public:
  explicit MlpReference(const Mlp& mlp) : spec_(mlp.spec()) {
    Mlp copy = mlp;  // params() is non-const; read a copy's
    for (const ParamView& view : copy.params()) {
      params_.emplace_back(view.value.begin(), view.value.end());
    }
  }

  [[nodiscard]] MlpGrads zero_grads() const {
    MlpGrads grads;
    for (const auto& p : params_) grads.emplace_back(p.size(), 0.0);
    return grads;
  }

  [[nodiscard]] tensor::Vector forward(std::span<const double> x) const {
    tensor::Vector current(x.begin(), x.end());
    for (std::size_t l = 0; l < layer_count(); ++l) {
      current = linear_forward(params_[2 * l], params_[2 * l + 1], current);
      if (has_activation(l)) {
        current = activation_forward(activation_after(l), current);
      }
    }
    return current;
  }

  /// Forward then backward for one sample: accumulates into `grads`
  /// (zero_grads() layout) and returns dL/dx.
  tensor::Vector forward_backward(std::span<const double> x,
                                  std::span<const double> grad_out,
                                  MlpGrads& grads) const {
    // Inputs of every linear layer and of every activation layer.
    std::vector<tensor::Vector> linear_in;
    std::vector<tensor::Vector> activation_in;
    tensor::Vector current(x.begin(), x.end());
    for (std::size_t l = 0; l < layer_count(); ++l) {
      linear_in.push_back(current);
      current = linear_forward(params_[2 * l], params_[2 * l + 1], current);
      activation_in.push_back(current);
      if (has_activation(l)) {
        current = activation_forward(activation_after(l), current);
      }
    }
    tensor::Vector grad(grad_out.begin(), grad_out.end());
    for (std::size_t l = layer_count(); l-- > 0;) {
      if (has_activation(l)) {
        grad =
            activation_backward(activation_after(l), activation_in[l], grad);
      }
      grad = linear_backward(params_[2 * l], linear_in[l], grad, grads[2 * l],
                             grads[2 * l + 1]);
    }
    return grad;
  }

 private:
  [[nodiscard]] std::size_t layer_count() const {
    return spec_.hidden_dims.size() + 1;
  }
  [[nodiscard]] Activation activation_after(std::size_t l) const {
    return l + 1 < layer_count() ? spec_.hidden_activation
                                 : spec_.output_activation;
  }
  /// Mlp builds no activation layer after an Identity output.
  [[nodiscard]] bool has_activation(std::size_t l) const {
    return l + 1 < layer_count() ||
           spec_.output_activation != Activation::Identity;
  }

  MlpSpec spec_;
  std::vector<std::vector<double>> params_;
};

}  // namespace muffin::nn::reference
