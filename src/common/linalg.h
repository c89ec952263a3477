#ifndef PROXDET_COMMON_LINALG_H_
#define PROXDET_COMMON_LINALG_H_

#include <cstddef>
#include <vector>

namespace proxdet {

/// Minimal dense row-major matrix of doubles. Sized for the small systems
/// this library solves (Kalman covariance updates, RMF recurrence fitting):
/// clarity over cache blocking.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  Matrix Transpose() const;
  Matrix operator*(const Matrix& other) const;

  /// Matrix-vector product. Requires v.size() == cols().
  std::vector<double> Apply(const std::vector<double>& v) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Returns false when A is (numerically) singular.
bool SolveLinearSystem(Matrix a, std::vector<double> b, std::vector<double>* x);

/// Ridge-regularized least squares: minimizes |A x - b|^2 + lambda |x|^2 via
/// the normal equations. Returns false on failure. lambda > 0 keeps the
/// system well-posed for the near-collinear windows RMF fits.
bool RidgeLeastSquares(const Matrix& a, const std::vector<double>& b,
                       double lambda, std::vector<double>* x);

}  // namespace proxdet

#endif  // PROXDET_COMMON_LINALG_H_
