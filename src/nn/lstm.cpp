#include "nn/lstm.h"

#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::nn {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      h_(hidden_dim, 0.0),
      c_(hidden_dim, 0.0) {
  MUFFIN_REQUIRE(input_dim > 0 && hidden_dim > 0,
                 "LSTM dimensions must be positive");
  const std::size_t z_dim = input_dim + hidden_dim;
  for (GateBlock* block :
       {&input_gate_, &forget_gate_, &cell_gate_, &output_gate_}) {
    block->weight.resize(hidden_dim, z_dim);
    block->bias.assign(hidden_dim, 0.0);
    block->weight_grad.resize(hidden_dim, z_dim);
    block->bias_grad.assign(hidden_dim, 0.0);
  }
}

void LstmCell::init(SplitRng& rng) {
  const std::size_t z_dim = input_dim_ + hidden_dim_;
  const double bound = std::sqrt(6.0 / static_cast<double>(z_dim + hidden_dim_));
  for (GateBlock* block :
       {&input_gate_, &forget_gate_, &cell_gate_, &output_gate_}) {
    for (double& w : block->weight.flat()) w = rng.uniform(-bound, bound);
    for (double& b : block->bias) b = 0.0;
  }
  for (double& b : forget_gate_.bias) b = 1.0;
  begin_sequence();
}

void LstmCell::begin_sequence() {
  h_.assign(hidden_dim_, 0.0);
  c_.assign(hidden_dim_, 0.0);
  cache_.clear();
}

tensor::Vector LstmCell::gate_preactivation(
    const GateBlock& block, std::span<const double> x,
    std::span<const double> h_prev) const {
  tensor::Vector pre(hidden_dim_, 0.0);
  for (std::size_t r = 0; r < hidden_dim_; ++r) {
    const auto row = block.weight.row(r);
    double acc = block.bias[r];
    for (std::size_t j = 0; j < input_dim_; ++j) acc += row[j] * x[j];
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
      acc += row[input_dim_ + j] * h_prev[j];
    }
    pre[r] = acc;
  }
  return pre;
}

tensor::Vector LstmCell::step(std::span<const double> input) {
  MUFFIN_REQUIRE(input.size() == input_dim_, "LSTM input size mismatch");
  StepCache cache;
  cache.x.assign(input.begin(), input.end());
  cache.h_prev = h_;
  cache.c_prev = c_;

  tensor::Vector pre_i = gate_preactivation(input_gate_, input, h_);
  tensor::Vector pre_f = gate_preactivation(forget_gate_, input, h_);
  tensor::Vector pre_g = gate_preactivation(cell_gate_, input, h_);
  tensor::Vector pre_o = gate_preactivation(output_gate_, input, h_);

  cache.gates.i.resize(hidden_dim_);
  cache.gates.f.resize(hidden_dim_);
  cache.gates.g.resize(hidden_dim_);
  cache.gates.o.resize(hidden_dim_);
  cache.c.resize(hidden_dim_);
  cache.tanh_c.resize(hidden_dim_);
  for (std::size_t j = 0; j < hidden_dim_; ++j) {
    cache.gates.i[j] = sigmoid(pre_i[j]);
    cache.gates.f[j] = sigmoid(pre_f[j]);
    cache.gates.g[j] = std::tanh(pre_g[j]);
    cache.gates.o[j] = sigmoid(pre_o[j]);
    cache.c[j] = cache.gates.f[j] * cache.c_prev[j] +
                 cache.gates.i[j] * cache.gates.g[j];
    cache.tanh_c[j] = std::tanh(cache.c[j]);
    h_[j] = cache.gates.o[j] * cache.tanh_c[j];
  }
  c_ = cache.c;
  cache_.push_back(std::move(cache));
  return h_;
}

std::vector<tensor::Vector> LstmCell::backward_sequence(
    const std::vector<tensor::Vector>& grad_h_per_step) {
  MUFFIN_REQUIRE(grad_h_per_step.size() == cache_.size(),
                 "BPTT gradient count must match steps taken");
  const std::size_t steps = cache_.size();
  std::vector<tensor::Vector> grad_x(steps,
                                     tensor::Vector(input_dim_, 0.0));
  tensor::Vector dh_next(hidden_dim_, 0.0);
  tensor::Vector dc_next(hidden_dim_, 0.0);

  for (std::size_t idx = steps; idx-- > 0;) {
    const StepCache& cache = cache_[idx];
    MUFFIN_REQUIRE(grad_h_per_step[idx].size() == hidden_dim_,
                   "BPTT per-step gradient size mismatch");

    tensor::Vector dh = grad_h_per_step[idx];
    for (std::size_t j = 0; j < hidden_dim_; ++j) dh[j] += dh_next[j];

    tensor::Vector dpre_i(hidden_dim_), dpre_f(hidden_dim_),
        dpre_g(hidden_dim_), dpre_o(hidden_dim_), dc(hidden_dim_);
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
      const double o = cache.gates.o[j];
      const double i = cache.gates.i[j];
      const double f = cache.gates.f[j];
      const double g = cache.gates.g[j];
      const double tc = cache.tanh_c[j];
      dc[j] = dh[j] * o * (1.0 - tc * tc) + dc_next[j];
      dpre_o[j] = dh[j] * tc * o * (1.0 - o);
      dpre_f[j] = dc[j] * cache.c_prev[j] * f * (1.0 - f);
      dpre_i[j] = dc[j] * g * i * (1.0 - i);
      dpre_g[j] = dc[j] * i * (1.0 - g * g);
    }

    tensor::Vector dz(input_dim_ + hidden_dim_, 0.0);
    const auto accumulate = [&](GateBlock& block,
                                const tensor::Vector& dpre) {
      for (std::size_t r = 0; r < hidden_dim_; ++r) {
        const double d = dpre[r];
        block.bias_grad[r] += d;
        if (d == 0.0) continue;
        auto row = block.weight.row(r);
        auto grad_row = block.weight_grad.row(r);
        for (std::size_t j = 0; j < input_dim_; ++j) {
          grad_row[j] += d * cache.x[j];
          dz[j] += row[j] * d;
        }
        for (std::size_t j = 0; j < hidden_dim_; ++j) {
          grad_row[input_dim_ + j] += d * cache.h_prev[j];
          dz[input_dim_ + j] += row[input_dim_ + j] * d;
        }
      }
    };
    accumulate(input_gate_, dpre_i);
    accumulate(forget_gate_, dpre_f);
    accumulate(cell_gate_, dpre_g);
    accumulate(output_gate_, dpre_o);

    for (std::size_t j = 0; j < input_dim_; ++j) grad_x[idx][j] = dz[j];
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
      dh_next[j] = dz[input_dim_ + j];
      dc_next[j] = dc[j] * cache.gates.f[j];
    }
  }
  return grad_x;
}

std::vector<ParamView> LstmCell::params() {
  std::vector<ParamView> views;
  for (GateBlock* block :
       {&input_gate_, &forget_gate_, &cell_gate_, &output_gate_}) {
    views.push_back({block->weight.flat(), block->weight_grad.flat()});
    views.push_back({block->bias, block->bias_grad});
  }
  return views;
}

void LstmCell::zero_grad() {
  for (GateBlock* block :
       {&input_gate_, &forget_gate_, &cell_gate_, &output_gate_}) {
    block->weight_grad.fill(0.0);
    for (double& g : block->bias_grad) g = 0.0;
  }
}

std::size_t LstmCell::parameter_count() const {
  const std::size_t z_dim = input_dim_ + hidden_dim_;
  return 4 * (hidden_dim_ * z_dim + hidden_dim_);
}

}  // namespace muffin::nn
