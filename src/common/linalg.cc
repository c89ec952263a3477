#include "common/linalg.h"

#include <cmath>

namespace proxdet {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double v = At(r, k);
      if (v == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out.At(r, c) += v * other.At(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::Apply(const std::vector<double>& v) const {
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += At(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

bool SolveLinearSystem(Matrix a, std::vector<double> b, std::vector<double>* x) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) return false;
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::fabs(a.At(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a.At(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a.At(pivot, c), a.At(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a.At(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a.At(r, col) * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a.At(r, c) -= factor * a.At(col, c);
      b[r] -= factor * b[col];
    }
  }
  x->assign(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a.At(ri, c) * (*x)[c];
    (*x)[ri] = acc / a.At(ri, ri);
  }
  return true;
}

bool RidgeLeastSquares(const Matrix& a, const std::vector<double>& b,
                       double lambda, std::vector<double>* x) {
  const Matrix at = a.Transpose();
  Matrix normal = at * a;
  for (size_t i = 0; i < normal.rows(); ++i) normal.At(i, i) += lambda;
  const std::vector<double> rhs = at.Apply(b);
  return SolveLinearSystem(normal, rhs, x);
}

}  // namespace proxdet
