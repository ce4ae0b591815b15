// Portable scalar kernel backend — the bit-identity reference.
//
// These are the PR 3 register-tiled kernels, lifted to raw-pointer +
// leading-dimension form so the SIMD backends and the public wrappers in
// ops.cpp can share one signature. The arithmetic is untouched:
// every output element accumulates in the same order as before.
#include <algorithm>
#include <cmath>

#include "tensor/kernels_planar.h"
#include "tensor/kernels_quant.h"
#include "tensor/simd.h"

namespace muffin::tensor::detail {

namespace {

/// i-k-j with a 128-column tile on B: the inner traversal stays contiguous
/// for row-major data and the active B/C row segments stay cache-resident
/// when B is wide. The per-element accumulation order over k is unchanged
/// by the tiling. `out` must be pre-zeroed (the kernel accumulates).
void matmul_scalar(const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* out, std::size_t ldo,
                   std::size_t n, std::size_t depth, std::size_t m) {
  constexpr std::size_t kColTile = 128;
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    for (std::size_t j0 = 0; j0 < m; j0 += kColTile) {
      const std::size_t j1 = std::min(j0 + kColTile, m);
      for (std::size_t k = 0; k < depth; ++k) {
        const double aik = ai[k];
        if (aik == 0.0) continue;
        const double* bk = b + k * ldb;
        for (std::size_t j = j0; j < j1; ++j) {
          ci[j] += aik * bk[j];
        }
      }
    }
  }
}

/// A * B^T (+ bias) with a 2x4 register tile: two A rows against four B
/// rows gives eight independent accumulation chains, hiding FP latency
/// that a single dot product cannot. Every out(i, j) accumulates its k
/// terms in ascending order from 0.0 and adds the bias last, the order of
/// an untiled per-element dot product. `bias` may be null.
void gemm_tb_scalar(const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, const double* bias, double* out,
                    std::size_t ldo, std::size_t n, std::size_t m,
                    std::size_t depth) {
  const auto finish = [bias](double acc, std::size_t j) {
    return bias == nullptr ? acc : acc + bias[j];
  };

  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double* a0 = a + i * lda;
    const double* a1 = a + (i + 1) * lda;
    double* c0 = out + i * ldo;
    double* c1 = out + (i + 1) * ldo;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * ldb;
      const double* b1 = b + (j + 1) * ldb;
      const double* b2 = b + (j + 2) * ldb;
      const double* b3 = b + (j + 3) * ldb;
      double c00 = 0.0, c01 = 0.0, c02 = 0.0, c03 = 0.0;
      double c10 = 0.0, c11 = 0.0, c12 = 0.0, c13 = 0.0;
      for (std::size_t k = 0; k < depth; ++k) {
        const double x0 = a0[k];
        const double x1 = a1[k];
        c00 += x0 * b0[k];
        c01 += x0 * b1[k];
        c02 += x0 * b2[k];
        c03 += x0 * b3[k];
        c10 += x1 * b0[k];
        c11 += x1 * b1[k];
        c12 += x1 * b2[k];
        c13 += x1 * b3[k];
      }
      c0[j] = finish(c00, j);
      c0[j + 1] = finish(c01, j + 1);
      c0[j + 2] = finish(c02, j + 2);
      c0[j + 3] = finish(c03, j + 3);
      c1[j] = finish(c10, j);
      c1[j + 1] = finish(c11, j + 1);
      c1[j + 2] = finish(c12, j + 2);
      c1[j + 3] = finish(c13, j + 3);
    }
    for (; j < m; ++j) {
      const double* bj = b + j * ldb;
      double acc0 = 0.0, acc1 = 0.0;
      for (std::size_t k = 0; k < depth; ++k) {
        acc0 += a0[k] * bj[k];
        acc1 += a1[k] * bj[k];
      }
      c0[j] = finish(acc0, j);
      c1[j] = finish(acc1, j);
    }
  }
  for (; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * ldb;
      const double* b1 = b + (j + 1) * ldb;
      const double* b2 = b + (j + 2) * ldb;
      const double* b3 = b + (j + 3) * ldb;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t k = 0; k < depth; ++k) {
        const double x = ai[k];
        acc0 += x * b0[k];
        acc1 += x * b1[k];
        acc2 += x * b2[k];
        acc3 += x * b3[k];
      }
      ci[j] = finish(acc0, j);
      ci[j + 1] = finish(acc1, j + 1);
      ci[j + 2] = finish(acc2, j + 2);
      ci[j + 3] = finish(acc3, j + 3);
    }
    for (; j < m; ++j) {
      const double* bj = b + j * ldb;
      double acc = 0.0;
      for (std::size_t k = 0; k < depth; ++k) acc += ai[k] * bj[k];
      ci[j] = finish(acc, j);
    }
  }
}

/// Stable softmax: scalar max scan, scalar exp + ascending total, then the
/// normalization divide. Shape/temperature validation lives in the ops.h
/// wrapper.
void softmax_scalar(const double* logits, std::size_t n, double temperature,
                    double* out) {
  const double maxv = *std::max_element(logits, logits + n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::exp((logits[i] - maxv) / temperature);
    total += out[i];
  }
  for (std::size_t i = 0; i < n; ++i) out[i] /= total;
}

}  // namespace

const KernelTable& scalar_kernels() {
  static constexpr KernelTable table{
      matmul_scalar,          gemm_tb_scalar,     softmax_scalar,
      normal_planar_generic,  softmax_planar_generic,
      gemm_tb_bf16_generic,   gemm_tb_i8_generic, "scalar"};
  return table;
}

}  // namespace muffin::tensor::detail
