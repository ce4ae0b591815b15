// LSTM cell with backpropagation through time.
//
// Backbone of the Muffin RNN controller (framework component #4). The cell
// processes a decision sequence step by step, caching per-step state; the
// controller then feeds per-step dL/dh gradients back through
// backward_sequence to get REINFORCE parameter gradients (Eq. 4).
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/matrix.h"

namespace muffin::nn {

/// Single-layer LSTM cell over sequences of vectors.
class LstmCell {
 public:
  LstmCell(std::size_t input_dim, std::size_t hidden_dim);

  /// Xavier-style initialization; forget-gate bias starts at 1 (standard
  /// trick to keep memory open early in training).
  void init(SplitRng& rng);

  /// Reset hidden/cell state and drop cached steps.
  void begin_sequence();
  /// Process one input; returns the new hidden state h_t.
  tensor::Vector step(std::span<const double> input);
  /// Number of steps taken since begin_sequence.
  [[nodiscard]] std::size_t sequence_length() const { return cache_.size(); }

  /// BPTT: `grad_h_per_step[t]` is dL/dh_t from the layers above (may be a
  /// zero vector for steps without direct loss). Accumulates parameter
  /// gradients; returns dL/dx_t for each step.
  std::vector<tensor::Vector> backward_sequence(
      const std::vector<tensor::Vector>& grad_h_per_step);

  std::vector<ParamView> params();
  void zero_grad();
  [[nodiscard]] std::size_t parameter_count() const;

  [[nodiscard]] std::size_t input_dim() const { return input_dim_; }
  [[nodiscard]] std::size_t hidden_dim() const { return hidden_dim_; }
  [[nodiscard]] const tensor::Vector& hidden() const { return h_; }
  [[nodiscard]] const tensor::Vector& cell() const { return c_; }

 private:
  struct Gates {
    tensor::Vector i, f, g, o;
  };
  struct StepCache {
    tensor::Vector x, h_prev, c_prev, c, tanh_c;
    Gates gates;
  };

  /// One gate's affine block: y = W [x; h_prev] + b.
  struct GateBlock {
    tensor::Matrix weight;       // (hidden, input + hidden)
    tensor::Vector bias;         // (hidden)
    tensor::Matrix weight_grad;
    tensor::Vector bias_grad;
  };

  tensor::Vector gate_preactivation(const GateBlock& block,
                                    std::span<const double> x,
                                    std::span<const double> h_prev) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  GateBlock input_gate_, forget_gate_, cell_gate_, output_gate_;
  tensor::Vector h_, c_;
  std::vector<StepCache> cache_;
};

}  // namespace muffin::nn
