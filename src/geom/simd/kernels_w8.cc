// 8-wide (512-bit, AVX-512F) backend. This TU is compiled with
// -mavx512f -ffp-contract=off -fno-math-errno; see kernels_impl.h for the
// bit-exactness rules the instantiation relies on.

#include "geom/simd/kernel_table.h"
#include "geom/simd/kernels_impl.h"

namespace proxdet {
namespace simd {
namespace internal {

namespace {
typedef double v8d __attribute__((vector_size(64)));
typedef long long v8l __attribute__((vector_size(64)));
using K = Kernels<v8d, v8l, 8>;
}  // namespace

const KernelTable& W8Table() {
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
