// Shared generic bodies of the planar (record-per-lane) batch kernels.
//
// Two kernels live here: normal_planar (one standard-normal draw per
// splitmix64 stream state) and softmax_planar (softmax over class-major
// logit planes). Unlike the GEMM kernels, which are hand-written per
// backend, these are straight elementwise column sweeps — so each backend
// TU includes this header and compiles the same bodies under its own ISA
// flags (plus -ffp-contract=off), letting the compiler auto-vectorize
// with one record per lane. Every element sees the exact same IEEE
// operation sequence in every backend (elementwise ops round lane-wise
// identically; no reduction crosses lanes; contraction is pinned off), so
// all backends are bit-identical to scalar, and a single-row call is
// bit-identical to the same row inside any batch — the property the
// calibrated scoring path's batch-of-one == row-of-a-batch contract
// rests on.
//
// The exp inside softmax_planar is a local polynomial (planar_exp), not
// std::exp: libm calls block vectorization and their results may differ
// across libm versions, while this body is deterministic everywhere the
// IEEE basic operations are.
//
// The bodies are `static`, not `inline`, on purpose: an inline function's
// out-of-line copies are comdat-merged at link time and the survivor
// comes from an arbitrary TU — if the AVX-512 TU's copy won, the scalar
// backend would execute AVX-512 instructions and trap on older hosts.
// Internal linkage keeps one copy per backend TU, compiled under exactly
// that backend's ISA flags.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"

namespace muffin::tensor::detail {

/// Elementwise exp via Cody–Waite range reduction and a degree-12
/// polynomial: x = n·ln2 + r with |r| <= ln2/2, exp(x) = 2^n · P(r).
/// Branch-free (the round-to-nearest ±2^52 trick picks n; the 2^n scale
/// is built with integer ops), so the loop around it vectorizes. Max
/// relative error ~2 ulp over the clamped domain [-708, 708]; softmax
/// feeds it max-subtracted logits (<= 0), for which the result is always
/// finite and normal. Requires round-to-nearest and no FP contraction
/// (the including TUs pin -ffp-contract=off; a fused x*log2e+shift would
/// round differently and change which n is picked near halfway points).
static double planar_exp(double x) {
  x = std::min(std::max(x, -708.0), 708.0);
  constexpr double kLog2e = 1.44269504088896340736;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double t = x * kLog2e + kShift;  // n = round(x / ln2), in t's low bits
  const double n = t - kShift;
  const double r = (x - n * kLn2Hi) - n * kLn2Lo;
  double p = 1.0 / 479001600.0;  // Taylor 1/12! ... down to 1
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // 2^n from t's mantissa: t = 1.5·2^52 + n exactly, so the low 52 bits
  // hold 2^51 + n; shifting (n + 1023) into the exponent field builds the
  // scale without a float<->int conversion (which plain AVX-512F lacks).
  const std::uint64_t tb = std::bit_cast<std::uint64_t>(t);
  const double scale =
      std::bit_cast<double>((tb - (std::uint64_t{1} << 51) + 1023) << 52);
  return p * scale;
}

/// One standard-normal draw per stream: advances states[i] by one
/// splitmix64 step and writes normal_quantile(counter_unit(bits)) —
/// bit-identical to CounterRng::normal() on each stream. The central
/// probit rational runs branch-free over all lanes; the ~5% of draws in
/// the tails are overwritten by a scalar fixup pass with the exact
/// expression scalar normal_quantile uses.
static void normal_planar_generic(std::uint64_t* states, double* out,
                                  std::size_t n) {
  static thread_local std::vector<double> uniforms;
  uniforms.resize(n);
  double* u = uniforms.data();
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = counter_unit(splitmix64_next(states[i]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double q = u[i] - 0.5;
    out[i] = muffin::detail::normal_quantile_central(q, q * q);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (u[i] < muffin::detail::kNormalQuantileLow ||
        u[i] > muffin::detail::kNormalQuantileHigh) {
      out[i] = muffin::detail::normal_quantile_tail(u[i]);
    }
  }
}

/// Softmax over n records whose logits are stored class-major: class c's
/// plane is planes[c * plane_stride .. + n). Row i of the row-major
/// output (out + i * ldo) is the softmax of (planes[0][i], ...,
/// planes[classes-1][i]). Stages sweep across records — per-record max
/// (class-ascending), planar_exp (written back into the planes: they are
/// scratch and destroyed), per-record total (class-ascending), divide —
/// so each record's reduction chain is sequential within its lane and the
/// result is bit-identical for any n, including n == 1.
static void softmax_planar_generic(double* planes, std::size_t plane_stride,
                                   std::size_t classes, std::size_t n,
                                   double* out, std::size_t ldo) {
  static thread_local std::vector<double> reduce;
  reduce.resize(2 * n);
  double* maxv = reduce.data();
  double* total = reduce.data() + n;
  for (std::size_t i = 0; i < n; ++i) {
    maxv[i] = planes[i];
    total[i] = 0.0;
  }
  for (std::size_t c = 1; c < classes; ++c) {
    const double* pc = planes + c * plane_stride;
    for (std::size_t i = 0; i < n; ++i) {
      maxv[i] = std::max(maxv[i], pc[i]);
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    double* pc = planes + c * plane_stride;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = planar_exp(pc[i] - maxv[i]);
      pc[i] = e;
      total[i] += e;
    }
  }
  for (std::size_t c = 0; c < classes; ++c) {
    const double* pc = planes + c * plane_stride;
    for (std::size_t i = 0; i < n; ++i) {
      out[i * ldo + c] = pc[i] / total[i];
    }
  }
}

}  // namespace muffin::tensor::detail
