// Shared generic bodies of the dequantizing GEMM kernels.
//
// C = A * dequant(Bq)^T-in-k-major-form (+ bias): A is the row-major
// (n x depth) activation batch, Bq is a k-major quantized weight pack
// (element (j, k) of the logical (m x depth) weight matrix lives at
// bq[k * ldb + j]; see tensor/quant.h). The k-major layout is the point:
// the inner j sweep loads contiguous uint16/int8 lanes, widens them, and
// accumulates — a straight elementwise column sweep the compiler
// auto-vectorizes under each backend TU's ISA flags, exactly like
// kernels_planar.h. Each output element out(i, j) accumulates its k
// terms in ascending order through a separate multiply and add (the
// including TUs pin -ffp-contract=off, so no FMA contraction), and the
// bias — plus, for int8, the per-column scale — is applied last:
//
//   bf16: out(i, j) = (sum_k a(i,k) * widen(bq[k,j])) + bias[j]
//   int8: out(i, j) = (sum_k a(i,k) * (double)bq[k,j]) * scale[j] + bias[j]
//
// Every lane sees the same IEEE operation sequence in every backend
// (widening a bf16 or an int8 to f64 is exact; elementwise mul/add round
// lane-wise identically), so all backends are bit-identical to scalar
// and a single-row call is bit-identical to the same row of any batch —
// the property the quantized batch-of-one == row-of-a-batch contract
// rests on. Deliberately no a(i,k) == 0.0 skip: dequantized weights are always
// finite, the branch would block vectorization, and skipping would
// change -0.0 accumulations bit-wise between backends.
//
// Hoisting the int8 scale into the accumulation (scaling A or B up
// front) would save the final multiply but change the rounding sequence
// per k-term; applying it once per output element keeps the quantized
// value exactly reconstructible and the error bounded by the float GEMM
// rounding alone.
//
// The bodies are `static` (internal linkage), not `inline`, for the same
// reason as kernels_planar.h: comdat merging would let one TU's ISA copy
// win for every backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/quant.h"

namespace muffin::tensor::detail {

/// C(n x m) = A(n x depth) * widen(Bq)^T + bias, Bq k-major with leading
/// dimension ldb >= m. `bias` may be null.
static void gemm_tb_bf16_generic(const double* a, std::size_t lda,
                                 const std::uint16_t* bq, std::size_t ldb,
                                 const double* bias, double* out,
                                 std::size_t ldo, std::size_t n,
                                 std::size_t m, std::size_t depth) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    for (std::size_t j = 0; j < m; ++j) ci[j] = 0.0;
    for (std::size_t k = 0; k < depth; ++k) {
      const double aik = ai[k];
      const std::uint16_t* bk = bq + k * ldb;
      for (std::size_t j = 0; j < m; ++j) {
        ci[j] += aik * bf16_to_double(bk[j]);
      }
    }
    if (bias != nullptr) {
      for (std::size_t j = 0; j < m; ++j) ci[j] += bias[j];
    }
  }
}

/// C(n x m) = (A(n x depth) * (double)Bq^T) * scale + bias, Bq k-major
/// with per-output-column scales. `bias` may be null; `scales` may not.
static void gemm_tb_i8_generic(const double* a, std::size_t lda,
                               const std::int8_t* bq, std::size_t ldb,
                               const double* scales, const double* bias,
                               double* out, std::size_t ldo, std::size_t n,
                               std::size_t m, std::size_t depth) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    for (std::size_t j = 0; j < m; ++j) ci[j] = 0.0;
    for (std::size_t k = 0; k < depth; ++k) {
      const double aik = ai[k];
      const std::int8_t* bk = bq + k * ldb;
      for (std::size_t j = 0; j < m; ++j) {
        ci[j] += aik * static_cast<double>(bk[j]);
      }
    }
    if (bias != nullptr) {
      for (std::size_t j = 0; j < m; ++j) {
        ci[j] = ci[j] * scales[j] + bias[j];
      }
    } else {
      for (std::size_t j = 0; j < m; ++j) ci[j] *= scales[j];
    }
  }
}

}  // namespace muffin::tensor::detail
