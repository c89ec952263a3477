#ifndef PROXDET_GEOM_ANCHOR_GRID_H_
#define PROXDET_GEOM_ANCHOR_GRID_H_

#include <cmath>
#include <cstdint>

#include "geom/vec2.h"

namespace proxdet {

/// The anchor grid: the stripe builder snaps its path anchors onto it, and
/// the wire codec's quantized-delta point encoding ships grid indices. One
/// pitch, one range and one snap rule serve both, so every snapped anchor
/// is exactly what the codec reproduces.
///
/// Pitch 1/256 m (~4 mm). A power of two, so every on-grid coordinate is
/// exactly representable as a double and index -> coordinate is exact.
constexpr double kAnchorGridScale = 256.0;

/// Largest grid index magnitude. Indices this small are exact in a double
/// (|q| << 2^53), so double(q) / kAnchorGridScale loses nothing and llround
/// never overflows. Coordinates beyond ~1.4e11 m have no grid index.
constexpr int64_t kMaxAnchorGridIndex = int64_t{1} << 45;

/// Nearest grid index of `v` in *q; false (leaving *q alone) when `v` is
/// not finite or its index would exceed kMaxAnchorGridIndex.
inline bool NearestAnchorGridIndex(double v, int64_t* q) {
  if (!std::isfinite(v) || std::abs(v) * kAnchorGridScale >
                               static_cast<double>(kMaxAnchorGridIndex)) {
    return false;
  }
  *q = std::llround(v * kAnchorGridScale);
  return true;
}

/// The coordinate of grid index `q` (exact for |q| <= kMaxAnchorGridIndex).
inline double AnchorGridCoordinate(int64_t q) {
  return static_cast<double>(q) / kAnchorGridScale;
}

/// `v` snapped onto the grid; `v` itself where it has no grid index (the
/// codec then ships that shape uncompressed).
inline double SnapToAnchorGrid(double v) {
  int64_t q = 0;
  return NearestAnchorGridIndex(v, &q) ? AnchorGridCoordinate(q) : v;
}

inline Vec2 SnapToAnchorGrid(const Vec2& p) {
  return {SnapToAnchorGrid(p.x), SnapToAnchorGrid(p.y)};
}

}  // namespace proxdet

#endif  // PROXDET_GEOM_ANCHOR_GRID_H_
