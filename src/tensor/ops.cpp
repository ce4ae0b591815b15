#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "tensor/simd.h"

namespace muffin::tensor {

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  MUFFIN_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 std::string(op) + " requires matching shapes");
}
void require_same_size(std::span<const double> a, std::span<const double> b,
                       const char* op) {
  MUFFIN_REQUIRE(a.size() == b.size(),
                 std::string(op) + " requires matching sizes");
}
}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  matmul_into(a, b, out);
  return out;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  MUFFIN_REQUIRE(a.cols() == b.rows(), "matmul inner dimensions must match");
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    out.resize(a.rows(), b.cols());
  } else {
    out.fill(0.0);
  }
  // One call of the dispatched kernel (scalar, AVX2 or AVX-512; see
  // tensor/simd.h) over all rows, on the calling thread.
  detail::active_kernels().matmul(a.flat().data(), a.stride(),
                                  b.flat().data(), b.stride(),
                                  out.flat().data(), out.stride(), a.rows(),
                                  a.cols(), b.cols());
}

Matrix matmul_transposed_b(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  matmul_transposed_b_into(a, b, out);
  return out;
}

namespace {

/// Shared A * B^T (+ bias) wrapper: one call of the active kernel backend
/// (scalar 2x4 register tile, or the AVX2/AVX-512 column-vectorized kernel
/// — see tensor/simd.h) over all rows, on the calling thread. Every
/// out(i, j) accumulates its k terms in ascending order and adds the bias
/// last in every backend, the order of an untiled per-element dot product.
/// `bias` may be null.
///
/// A single row (a record scored alone) takes the scalar kernel: the
/// vector kernels pack B transposed on every call, and one row cannot
/// amortize that pack. At the head shapes the scalar kernel runs a 1-row
/// call in about 60% of the vector kernel's time; from two rows up the
/// vector kernel is as fast or faster.
void gemm_transposed_b_raw(const Matrix& a, const double* b_data,
                           std::size_t ldb, std::size_t m, const double* bias,
                           Matrix& out) {
  const detail::KernelTable& kernels =
      a.rows() == 1 ? detail::scalar_kernels() : detail::active_kernels();
  kernels.gemm_tb(a.flat().data(), a.stride(), b_data, ldb, bias,
                  out.flat().data(), out.stride(), a.rows(), m, a.cols());
}

void gemm_transposed_b(const Matrix& a, const Matrix& b, const double* bias,
                       Matrix& out) {
  gemm_transposed_b_raw(a, b.flat().data(), b.stride(), b.rows(), bias, out);
}

}  // namespace

void matmul_transposed_b_into(const Matrix& a, const Matrix& b, Matrix& out) {
  MUFFIN_REQUIRE(a.cols() == b.cols(),
                 "matmul_transposed_b inner dimensions must match");
  out.resize_for_overwrite(a.rows(), b.rows());
  gemm_transposed_b(a, b, nullptr, out);
}

void matmul_transposed_b_bias_into(const Matrix& a, const Matrix& b,
                                   std::span<const double> bias, Matrix& out) {
  MUFFIN_REQUIRE(a.cols() == b.cols(),
                 "matmul_transposed_b inner dimensions must match");
  MUFFIN_REQUIRE(bias.size() == b.rows(),
                 "bias size must match the output width");
  out.resize_for_overwrite(a.rows(), b.rows());
  gemm_transposed_b(a, b, bias.data(), out);
}

void matmul_transposed_b_bias_into(const Matrix& a, const double* b,
                                   std::size_t b_rows,
                                   std::span<const double> bias, Matrix& out) {
  MUFFIN_REQUIRE(b != nullptr && b_rows > 0,
                 "matmul_transposed_b requires a non-empty weight block");
  MUFFIN_REQUIRE(bias.size() == b_rows,
                 "bias size must match the output width");
  out.resize_for_overwrite(a.rows(), b_rows);
  gemm_transposed_b_raw(a, b, a.cols(), b_rows, bias.data(), out);
}

void matmul_transposed_b_bias_quant_into(const Matrix& a,
                                         const QuantizedGemmB& b,
                                         std::span<const double> bias,
                                         Matrix& out) {
  MUFFIN_REQUIRE(b.mode != QuantMode::Off,
                 "quant GEMM requires a quantized weight pack");
  MUFFIN_REQUIRE(a.cols() == b.depth,
                 "quant GEMM inner dimensions must match");
  MUFFIN_REQUIRE(bias.size() == b.m, "bias size must match the output width");
  out.resize_for_overwrite(a.rows(), b.m);
  const detail::KernelTable& kernels = detail::active_kernels();
  if (b.mode == QuantMode::Bf16) {
    kernels.gemm_tb_bf16(a.flat().data(), a.stride(), b.bf16_ptr(), b.m,
                         bias.data(), out.flat().data(), out.stride(),
                         a.rows(), b.m, b.depth);
    return;
  }
  kernels.gemm_tb_i8(a.flat().data(), a.stride(), b.i8_ptr(), b.m,
                     b.scales_ptr(), bias.data(), out.flat().data(),
                     out.stride(), a.rows(), b.m, b.depth);
}

Matrix transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out(j, i) = a(i, j);
    }
  }
  return out;
}

Matrix add(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "add");
  Matrix out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out.flat()[i] += b.flat()[i];
  return out;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "subtract");
  Matrix out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out.flat()[i] -= b.flat()[i];
  return out;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "hadamard");
  Matrix out = a;
  for (std::size_t i = 0; i < out.size(); ++i) out.flat()[i] *= b.flat()[i];
  return out;
}

Matrix scale(const Matrix& a, double factor) {
  Matrix out = a;
  for (double& v : out.flat()) v *= factor;
  return out;
}

void add_scaled_inplace(Matrix& a, const Matrix& b, double factor) {
  require_same_shape(a, b, "add_scaled_inplace");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.flat()[i] += b.flat()[i] * factor;
  }
}

Vector add(std::span<const double> a, std::span<const double> b) {
  require_same_size(a, b, "add");
  Vector out(a.begin(), a.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += b[i];
  return out;
}

Vector subtract(std::span<const double> a, std::span<const double> b) {
  require_same_size(a, b, "subtract");
  Vector out(a.begin(), a.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= b[i];
  return out;
}

Vector hadamard(std::span<const double> a, std::span<const double> b) {
  require_same_size(a, b, "hadamard");
  Vector out(a.begin(), a.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= b[i];
  return out;
}

Vector scale(std::span<const double> a, double factor) {
  Vector out(a.begin(), a.end());
  for (double& v : out) v *= factor;
  return out;
}

void add_scaled_inplace(Vector& a, std::span<const double> b, double factor) {
  require_same_size(a, b, "add_scaled_inplace");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i] * factor;
}

double dot(std::span<const double> a, std::span<const double> b) {
  require_same_size(a, b, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double l1_norm(std::span<const double> a) {
  double acc = 0.0;
  for (const double v : a) acc += std::abs(v);
  return acc;
}

double l2_norm(std::span<const double> a) {
  double acc = 0.0;
  for (const double v : a) acc += v * v;
  return std::sqrt(acc);
}

double sum(std::span<const double> a) {
  double acc = 0.0;
  for (const double v : a) acc += v;
  return acc;
}

Matrix outer(std::span<const double> a, std::span<const double> b) {
  Matrix out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out(i, j) = a[i] * b[j];
    }
  }
  return out;
}

Vector softmax(std::span<const double> logits) {
  return softmax(logits, 1.0);
}

Vector softmax(std::span<const double> logits, double temperature) {
  Vector out(logits.size());
  softmax_into(logits, temperature, out);
  return out;
}

void softmax_into(std::span<const double> logits, std::span<double> out) {
  softmax_into(logits, 1.0, out);
}

void softmax_into(std::span<const double> logits, double temperature,
                  std::span<double> out) {
  MUFFIN_REQUIRE(!logits.empty(), "softmax requires a non-empty input");
  MUFFIN_REQUIRE(temperature > 0.0, "softmax temperature must be positive");
  MUFFIN_REQUIRE(out.size() == logits.size(),
                 "softmax output size must match the input");
  detail::active_kernels().softmax(logits.data(), logits.size(), temperature,
                                   out.data());
}

Vector log_softmax(std::span<const double> logits) {
  MUFFIN_REQUIRE(!logits.empty(), "log_softmax requires a non-empty input");
  const double maxv = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (const double v : logits) total += std::exp(v - maxv);
  const double log_total = std::log(total) + maxv;
  Vector out(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = logits[i] - log_total;
  }
  return out;
}

void normal_planar_into(std::span<std::uint64_t> states,
                        std::span<double> out) {
  MUFFIN_REQUIRE(out.size() == states.size(),
                 "normal_planar output size must match the stream count");
  if (states.empty()) return;
  detail::active_kernels().normal_planar(states.data(), out.data(),
                                         states.size());
}

void softmax_planar_into(std::span<double> planes, std::size_t plane_stride,
                         std::size_t classes, std::size_t n, double* out,
                         std::size_t ldo) {
  MUFFIN_REQUIRE(classes > 0 && n > 0,
                 "softmax_planar requires classes > 0 and n > 0");
  MUFFIN_REQUIRE(plane_stride >= n,
                 "softmax_planar plane stride must cover the record count");
  MUFFIN_REQUIRE(planes.size() >= (classes - 1) * plane_stride + n,
                 "softmax_planar planes span too small");
  MUFFIN_REQUIRE(ldo >= classes,
                 "softmax_planar output leading dimension must cover classes");
  detail::active_kernels().softmax_planar(planes.data(), plane_stride, classes,
                                          n, out, ldo);
}

std::size_t argmax(std::span<const double> values) {
  MUFFIN_REQUIRE(!values.empty(), "argmax requires a non-empty input");
  return static_cast<std::size_t>(
      std::distance(values.begin(),
                    std::max_element(values.begin(), values.end())));
}

Vector one_hot(std::size_t index, std::size_t size) {
  MUFFIN_REQUIRE(index < size, "one_hot index must be within size");
  Vector out(size, 0.0);
  out[index] = 1.0;
  return out;
}

}  // namespace muffin::tensor
