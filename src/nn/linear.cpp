#include "nn/linear.h"

#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace muffin::nn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(out_dim, in_dim),
      bias_(out_dim, 0.0),
      weight_grad_(out_dim, in_dim),
      bias_grad_(out_dim, 0.0) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

Linear::Linear(std::size_t in_dim, std::size_t out_dim, DeferStorage)
    : in_dim_(in_dim), out_dim_(out_dim) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

// Manual copy control: the pack mutex is not copyable, and the copy should
// share a mapped source's pages rather than materialize them. The quant pack
// itself is immutable and keyed only by the weights, so sharing the
// shared_ptr with the source is safe and skips a re-pack.
Linear::Linear(const Linear& other)
    : in_dim_(other.in_dim_),
      out_dim_(other.out_dim_),
      weights_(other.weights_),
      bias_(other.bias_),
      weight_grad_(other.weight_grad_),
      bias_grad_(other.bias_grad_),
      mapped_weights_(other.mapped_weights_),
      mapped_bias_(other.mapped_bias_),
      keepalive_(other.keepalive_) {
  const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
  qpack_ = other.qpack_;
}

Linear& Linear::operator=(const Linear& other) {
  if (this == &other) return *this;
  in_dim_ = other.in_dim_;
  out_dim_ = other.out_dim_;
  weights_ = other.weights_;
  bias_ = other.bias_;
  weight_grad_ = other.weight_grad_;
  bias_grad_ = other.bias_grad_;
  work_ = Workspace{};
  mapped_weights_ = other.mapped_weights_;
  mapped_bias_ = other.mapped_bias_;
  keepalive_ = other.keepalive_;
  std::shared_ptr<const tensor::QuantizedGemmB> pack;
  {
    const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
    pack = other.qpack_;
  }
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_ = std::move(pack);
  return *this;
}

void Linear::require_trainable(const char* what) const {
  MUFFIN_REQUIRE(!mapped(), std::string(what) +
                                ": layer is frozen (weights are mapped "
                                "read-only from a model artifact)");
}

void Linear::invalidate_pack() const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_.reset();
}

std::shared_ptr<const tensor::QuantizedGemmB> Linear::quant_pack(
    tensor::QuantMode mode) const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  if (qpack_ == nullptr || qpack_->mode != mode) {
    qpack_ = std::make_shared<const tensor::QuantizedGemmB>(
        tensor::build_quant_pack(weight_data(), out_dim_, in_dim_, mode));
  }
  return qpack_;
}

void Linear::adopt_weights(const double* weights, const double* bias,
                           std::shared_ptr<const void> keepalive) {
  MUFFIN_REQUIRE(weights != nullptr && bias != nullptr,
                 "adopt_weights requires non-null weight and bias blocks");
  mapped_weights_ = weights;
  mapped_bias_ = bias;
  keepalive_ = std::move(keepalive);
  // Release the heap copies — the whole point of mapping is not paying for
  // them. Training caches go too; the layer is inference-only from here.
  weights_ = tensor::Matrix();
  bias_.clear();
  bias_.shrink_to_fit();
  weight_grad_ = tensor::Matrix();
  bias_grad_.clear();
  bias_grad_.shrink_to_fit();
  work_ = Workspace{};
  invalidate_pack();
}

void Linear::init_xavier(SplitRng& rng) {
  require_trainable("init_xavier");
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_dim_ + out_dim_));
  for (double& w : weights_.flat()) w = rng.uniform(-bound, bound);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

void Linear::init_he(SplitRng& rng) {
  require_trainable("init_he");
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (double& w : weights_.flat()) w = rng.normal(0.0, stddev);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

const tensor::Matrix& Linear::forward_batch(const tensor::Matrix& input) {
  require_trainable("forward_batch");
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  // The optimizer writes weights through ParamViews handed out before the
  // epoch loop, so a stale pack cannot be detected at the mutation site;
  // dropping it on every training forward keeps fit-then-serve correct.
  invalidate_pack();
  work_.input = input;
  // Read the cached copy, so an input that aliases work_.output is safe.
  tensor::matmul_transposed_b_bias_into(work_.input, weights_, bias_,
                                        work_.output);
  return work_.output;
}

void Linear::forward_batch_inference_into(const tensor::Matrix& input,
                                          tensor::Matrix& output) const {
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  const tensor::QuantMode mode = tensor::active_quant_mode();
  if (mode != tensor::QuantMode::Off) {
    const auto pack = quant_pack(mode);
    tensor::matmul_transposed_b_bias_quant_into(input, *pack, bias_span(),
                                                output);
    return;
  }
  tensor::matmul_transposed_b_bias_into(input, weight_data(), out_dim_,
                                        bias_span(), output);
}

void Linear::accumulate_grads(const tensor::Matrix& grad_output) {
  require_trainable("backward_batch");
  MUFFIN_REQUIRE(grad_output.cols() == out_dim_,
                 "linear batch gradient size mismatch");
  MUFFIN_REQUIRE(work_.input.rows() == grad_output.rows() &&
                     work_.input.cols() == in_dim_,
                 "batched backward called before forward_batch");
  const std::size_t n = grad_output.rows();
  tensor::Matrix& grad_t = work_.grad_t;
  grad_t.resize_for_overwrite(out_dim_, n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto g = grad_output.row(r);
    for (std::size_t i = 0; i < out_dim_; ++i) {
      bias_grad_[i] += g[i];
      grad_t(i, r) = g[i];
    }
  }
  // weight_grad += G^T X: the matmul kernel adds a(i, r) * x(r, j) into
  // each element over ascending r and skips a(i, r) == 0, so a batch
  // gives the same bits as the same rows fed one at a time.
  tensor::detail::active_kernels().matmul(
      grad_t.flat().data(), grad_t.stride(), work_.input.flat().data(),
      work_.input.stride(), weight_grad_.flat().data(), weight_grad_.stride(),
      out_dim_, n, in_dim_);
}

const tensor::Matrix& Linear::backward_batch(
    const tensor::Matrix& grad_output) {
  accumulate_grads(grad_output);
  tensor::matmul_into(grad_output, weights_, work_.grad_input);
  return work_.grad_input;
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

std::vector<ParamView> Linear::params() {
  require_trainable("params");
  invalidate_pack();  // callers hold mutable views past this call
  return {ParamView{weights_.flat(), weight_grad_.flat()},
          ParamView{bias_, bias_grad_}};
}

void Linear::zero_grad() {
  require_trainable("zero_grad");
  weight_grad_.fill(0.0);
  for (double& g : bias_grad_) g = 0.0;
}

const tensor::Matrix& Linear::weights() const {
  require_trainable("weights");
  return weights_;
}

tensor::Matrix& Linear::weights() {
  require_trainable("weights");
  invalidate_pack();
  return weights_;
}

const tensor::Vector& Linear::bias() const {
  require_trainable("bias");
  return bias_;
}

tensor::Vector& Linear::bias() {
  require_trainable("bias");
  invalidate_pack();
  return bias_;
}

}  // namespace muffin::nn
