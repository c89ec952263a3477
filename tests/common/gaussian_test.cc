#include "common/gaussian.h"

#include <gtest/gtest.h>

namespace proxdet {
namespace {

TEST(FoldedNormalTest, ZeroAndNegativeRadius) {
  EXPECT_EQ(FoldedNormalCdf(0.0, 10.0), 0.0);
  EXPECT_EQ(FoldedNormalCdf(-5.0, 10.0), 0.0);
}

TEST(FoldedNormalTest, PerfectPredictorSaturates) {
  // sigma = 0 means the prediction never misses: any positive radius holds.
  EXPECT_EQ(FoldedNormalCdf(1e-9, 0.0), 1.0);
}

TEST(FoldedNormalTest, KnownQuantiles) {
  // P(|N(0,1)| <= 1) = erf(1/sqrt(2)) ~= 0.6827.
  EXPECT_NEAR(FoldedNormalCdf(1.0, 1.0), 0.682689492, 1e-8);
  EXPECT_NEAR(FoldedNormalCdf(2.0, 1.0), 0.954499736, 1e-8);
}

TEST(FoldedNormalTest, MonotoneInRadius) {
  double prev = 0.0;
  for (double s = 0.1; s < 5.0; s += 0.1) {
    const double p = FoldedNormalCdf(s, 1.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(FoldedNormalTest, ScalesWithSigma) {
  EXPECT_NEAR(FoldedNormalCdf(10.0, 10.0), FoldedNormalCdf(1.0, 1.0), 1e-12);
}

TEST(FoldedNormalTest, TendsToOne) {
  EXPECT_NEAR(FoldedNormalCdf(100.0, 1.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace proxdet
