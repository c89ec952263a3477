// 4-wide (256-bit, AVX2) backend. This TU is compiled with
// -mavx2 -ffp-contract=off -fno-math-errno; see kernels_impl.h for the
// bit-exactness rules the instantiation relies on.

#include "geom/simd/kernel_table.h"
#include "geom/simd/kernels_impl.h"

namespace proxdet {
namespace simd {
namespace internal {

namespace {
typedef double v4d __attribute__((vector_size(32)));
typedef long long v4l __attribute__((vector_size(32)));
using K = Kernels<v4d, v4l, 4>;
}  // namespace

const KernelTable& W4Table() {
  static const KernelTable table{
      &K::SegmentSquaredDistanceToPoints,
      &K::PolylineSquaredDistanceToPoint,
      &K::SegmentsSquaredDistanceToPoint,
      &K::SegmentToPolylineSquaredDistance,
      &K::SegmentToSegmentsSquaredDistances,
      &K::PairsWithinRadii,
      &K::CirclesContainPoints,
      &K::CirclePairsGapBelow,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace proxdet
