#ifndef PROXDET_COMMON_GAUSSIAN_H_
#define PROXDET_COMMON_GAUSSIAN_H_

namespace proxdet {

/// P(|N(0, sigma^2)| <= s): the folded-normal CDF.
///
/// The paper's Eq. (6) integrates the one-sided Gaussian density from 0 to
/// s^u, which saturates at 0.5; since the prediction error is a non-negative
/// *distance*, the folded form (which tends to 1 as s grows) is the quantity
/// the derivation of E_m actually needs. See DESIGN.md §2.2.
double FoldedNormalCdf(double s, double sigma);

}  // namespace proxdet

#endif  // PROXDET_COMMON_GAUSSIAN_H_
