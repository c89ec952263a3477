#include "geom/circle.h"

#include <algorithm>

namespace proxdet {

double DistancePointToCircle(const Vec2& p, const Circle& c) {
  return std::max(0.0, Distance(p, c.center) - c.radius);
}

double DistanceCircleToCircle(const Circle& a, const Circle& b) {
  return std::max(0.0, Distance(a.center, b.center) - a.radius - b.radius);
}

}  // namespace proxdet
