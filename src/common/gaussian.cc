#include "common/gaussian.h"

#include <cmath>

namespace proxdet {

double FoldedNormalCdf(double s, double sigma) {
  if (s <= 0.0) return 0.0;
  if (sigma <= 0.0) return 1.0;  // A perfect predictor never misses.
  return std::erf(s / (sigma * 1.4142135623730950488016887));
}

}  // namespace proxdet
