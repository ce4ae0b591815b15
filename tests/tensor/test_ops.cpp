#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace muffin::tensor {
namespace {

TEST(Matmul, KnownProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matmul, NonSquareShapes) {
  const Matrix a(2, 3, 1.0);
  const Matrix b(3, 4, 2.0);
  const Matrix c = matmul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  for (const double v : c.flat()) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  EXPECT_THROW((void)matmul(a, b), Error);
}

TEST(Matmul, IdentityIsNeutral) {
  SplitRng rng(1);
  Matrix a(4, 4);
  for (double& v : a.flat()) v = rng.normal();
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  EXPECT_EQ(matmul(a, eye), a);
  EXPECT_EQ(matmul(eye, a), a);
}

TEST(MatmulInto, ReusesStorage) {
  const Matrix a = {{2.0}};
  const Matrix b = {{3.0}};
  Matrix out(1, 1, 99.0);
  matmul_into(a, b, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 6.0);
}

TEST(Transpose, Involution) {
  SplitRng rng(3);
  Matrix a(3, 4);
  for (double& v : a.flat()) v = rng.normal();
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(ElementwiseMatrix, AddSubtractHadamardScale) {
  const Matrix a = {{1.0, 2.0}};
  const Matrix b = {{3.0, 5.0}};
  EXPECT_DOUBLE_EQ(add(a, b)(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(subtract(b, a)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b)(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(scale(a, -2.0)(0, 0), -2.0);
}

TEST(ElementwiseMatrix, ShapeMismatchThrows) {
  const Matrix a(1, 2);
  const Matrix b(2, 1);
  EXPECT_THROW((void)add(a, b), Error);
  EXPECT_THROW((void)subtract(a, b), Error);
  EXPECT_THROW((void)hadamard(a, b), Error);
}

TEST(AddScaledInplace, MatrixAxpy) {
  Matrix a = {{1.0, 1.0}};
  const Matrix b = {{2.0, 3.0}};
  add_scaled_inplace(a, b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.5);
}

TEST(ElementwiseVector, AllOps) {
  const Vector a = {1.0, 2.0};
  const Vector b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(add(a, b)[0], 4.0);
  EXPECT_DOUBLE_EQ(subtract(a, b)[1], -2.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b)[1], 8.0);
  EXPECT_DOUBLE_EQ(scale(a, 3.0)[0], 3.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(sum(a), 3.0);
}

TEST(Norms, L1AndL2) {
  const Vector v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(l1_norm(v), 7.0);
  EXPECT_DOUBLE_EQ(l2_norm(v), 5.0);
}

TEST(AddScaledInplace, VectorAxpy) {
  Vector a = {1.0, 2.0};
  const Vector b = {10.0, 20.0};
  add_scaled_inplace(a, b, 0.1);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 4.0);
}

TEST(Outer, ShapeAndValues) {
  const Vector a = {1.0, 2.0};
  const Vector b = {3.0, 4.0, 5.0};
  const Matrix m = outer(a, b);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 10.0);
}

TEST(Softmax, SumsToOneAndOrders) {
  const Vector logits = {1.0, 2.0, 3.0};
  const Vector p = softmax(logits);
  EXPECT_NEAR(sum(p), 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const Vector logits = {1000.0, 1001.0};
  const Vector p = softmax(logits);
  EXPECT_NEAR(sum(p), 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Softmax, ShiftInvariant) {
  const Vector a = softmax(Vector{1.0, 2.0, 3.0});
  const Vector b = softmax(Vector{101.0, 102.0, 103.0});
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Softmax, TemperatureFlattens) {
  const Vector logits = {0.0, 1.0};
  const Vector sharp = softmax(logits, 0.5);
  const Vector flat = softmax(logits, 4.0);
  EXPECT_GT(sharp[1], flat[1]);
  EXPECT_NEAR(sum(flat), 1.0, 1e-12);
}

TEST(Softmax, RejectsBadInput) {
  EXPECT_THROW((void)softmax(Vector{}), Error);
  EXPECT_THROW((void)softmax(Vector{1.0}, 0.0), Error);
  EXPECT_THROW((void)softmax(Vector{1.0}, -1.0), Error);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  const Vector logits = {0.3, -1.2, 2.5};
  const Vector p = softmax(logits);
  const Vector lp = log_softmax(logits);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-12);
  }
}

TEST(Argmax, FirstMaxWins) {
  EXPECT_EQ(argmax(Vector{1.0, 3.0, 3.0, 2.0}), 1u);
  EXPECT_EQ(argmax(Vector{5.0}), 0u);
  EXPECT_THROW((void)argmax(Vector{}), Error);
}

TEST(OneHot, Basic) {
  const Vector v = one_hot(2, 4);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
  EXPECT_DOUBLE_EQ(sum(v), 1.0);
  EXPECT_THROW((void)one_hot(4, 4), Error);
}

class MatmulAssociativity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatmulAssociativity, HoldsNumerically) {
  const std::size_t n = GetParam();
  SplitRng rng(n);
  Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.flat()) v = rng.normal();
  for (double& v : b.flat()) v = rng.normal();
  for (double& v : c.flat()) v = rng.normal();
  const Matrix left = matmul(matmul(a, b), c);
  const Matrix right = matmul(a, matmul(b, c));
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_NEAR(left.flat()[i], right.flat()[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulAssociativity,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace muffin::tensor
