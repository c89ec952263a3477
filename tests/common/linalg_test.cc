#include "common/linalg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace proxdet {
namespace {

TEST(MatrixTest, IdentityAndMultiply) {
  Matrix a(2, 3);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(0, 2) = 3;
  a.At(1, 0) = 4;
  a.At(1, 1) = 5;
  a.At(1, 2) = 6;
  Matrix i3(3, 3);
  for (size_t i = 0; i < 3; ++i) i3.At(i, i) = 1.0;
  const Matrix prod = a * i3;
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod.At(r, c), a.At(r, c));
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a(2, 3);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = static_cast<double>(r * 3 + c);
  const Matrix att = a.Transpose().Transpose();
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(att.At(r, c), a.At(r, c));
}

TEST(MatrixTest, ApplyMatchesManual) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  const std::vector<double> v{5.0, 6.0};
  const std::vector<double> out = a.Apply(v);
  EXPECT_DOUBLE_EQ(out[0], 17.0);
  EXPECT_DOUBLE_EQ(out[1], 39.0);
}

TEST(SolveTest, Solves2x2) {
  Matrix a(2, 2);
  a.At(0, 0) = 2;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(a, {5.0, 10.0}, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveTest, RejectsSingular) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 4;
  std::vector<double> x;
  EXPECT_FALSE(SolveLinearSystem(a, {1.0, 2.0}, &x));
}

TEST(SolveTest, NeedsPivoting) {
  // Leading zero forces a row swap.
  Matrix a(2, 2);
  a.At(0, 0) = 0;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 0;
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(a, {2.0, 3.0}, &x));
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveTest, RandomSystemsRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextIndex(6);
    Matrix a(n, n);
    std::vector<double> truth(n);
    for (size_t r = 0; r < n; ++r) {
      truth[r] = rng.Uniform(-5, 5);
      for (size_t c = 0; c < n; ++c) a.At(r, c) = rng.Uniform(-5, 5);
      a.At(r, r) += 10.0;  // Diagonally dominant: well-conditioned.
    }
    const std::vector<double> b = a.Apply(truth);
    std::vector<double> x;
    ASSERT_TRUE(SolveLinearSystem(a, b, &x));
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-8);
  }
}

TEST(RidgeTest, RecoverOverdeterminedFit) {
  // y = 2x + 1 sampled exactly: ridge with tiny lambda recovers it.
  Matrix a(5, 2);
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) {
    a.At(i, 0) = i;
    a.At(i, 1) = 1.0;
    b[i] = 2.0 * i + 1.0;
  }
  std::vector<double> x;
  ASSERT_TRUE(RidgeLeastSquares(a, b, 1e-9, &x));
  EXPECT_NEAR(x[0], 2.0, 1e-5);
  EXPECT_NEAR(x[1], 1.0, 1e-4);
}

TEST(RidgeTest, RegularizationShrinksSolution) {
  Matrix a(3, 1);
  a.At(0, 0) = 1;
  a.At(1, 0) = 1;
  a.At(2, 0) = 1;
  std::vector<double> weak;
  std::vector<double> strong;
  ASSERT_TRUE(RidgeLeastSquares(a, {3.0, 3.0, 3.0}, 1e-9, &weak));
  ASSERT_TRUE(RidgeLeastSquares(a, {3.0, 3.0, 3.0}, 10.0, &strong));
  EXPECT_NEAR(weak[0], 3.0, 1e-6);
  EXPECT_LT(strong[0], weak[0]);
}

}  // namespace
}  // namespace proxdet
