#ifndef PROXDET_GEOM_SIMD_SIMD_H_
#define PROXDET_GEOM_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace proxdet {
namespace simd {

/// Batched geometry kernels over SoA (structure-of-arrays) operands.
///
/// Contract: every kernel is **bit-exact** with the scalar geometry in
/// src/geom — the per-lane operation sequence is the scalar sequence (same
/// adds, multiplies, divides, sqrt and comparisons, in the same order), so
/// a lane computes the identical IEEE-754 double the per-pair call would.
/// The one fold (the min-reductions of the *SquaredDistance* scans) runs
/// over non-negative finite values in index order, and IEEE sqrt is
/// correctly rounded hence monotone, so sqrt(min d^2) == min sqrt(d^2)
/// bit-for-bit. DESIGN.md §11 spells the argument out. There is one
/// implementation (kernels.cc, compiled with -ffp-contract=off so no fused
/// multiply-add can perturb the operation sequence); tests/geom/simd_test.cc
/// checks every lane against the per-pair primitive.

/// SoA view of a polyline's segments. Arrays hold, per segment i:
/// endpoints (ax,ay)-(bx,by), the precomputed direction d = b - a and its
/// squared norm len2 = dx*dx + dy*dy. The precomputed fields are the exact
/// doubles the scalar path computes per call (pure functions of a and b),
/// cached once at build time — batched queries re-derive nothing.
/// A single-point polyline is represented as one degenerate segment
/// (a == b, d == 0, len2 == 0); the degenerate-segment guard then yields
/// bitwise the same distance as the scalar point-point special case.
struct SegmentSoA {
  const double* ax = nullptr;
  const double* ay = nullptr;
  const double* bx = nullptr;
  const double* by = nullptr;
  const double* dx = nullptr;
  const double* dy = nullptr;
  const double* len2 = nullptr;
  size_t n = 0;
};

/// The kernel implementation a run used, for machine blocks and metric
/// names. There is one: the scalar loops of kernels.cc.
enum class Backend : int { kScalar = 0 };

Backend ActiveBackend();
const char* BackendName(Backend b);

// ---------------------------------------------------------------------------
// Batched kernels. All outputs are written for all n lanes;
// uint8_t outputs are exactly 0 or 1.
// ---------------------------------------------------------------------------

/// Lane i: SquaredDistancePointToSegment((px[i], py[i]), segment), with the
/// segment given in precomputed form (a, d = b - a, len2 = |d|^2).
void SegmentSquaredDistanceToPoints(double ax, double ay, double dx,
                                    double dy, double len2, const double* px,
                                    const double* py, size_t n, double* out);

/// One point against the whole polyline, vectorized across segments
/// (lane = segment, min-reduced): Polyline::SquaredDistanceToPoint over the
/// SoA segments (+infinity when segs.n == 0, matching the empty polyline).
double PolylineSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                      double py);

/// Store variant of the above: lane i gets the squared distance from the
/// point to segment i (no reduction). Ranged minima taken over out[] in
/// index order equal the reduced call on the sub-polyline bit-for-bit (the
/// lane values are position-independent and min over non-negative finite
/// doubles is fold-order-free) — callers batch MANY polylines as one
/// concatenated SoA and reduce per range.
void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                    double py, double* out);

/// One query segment (qa)-(qb) against the whole polyline, vectorized
/// across target segments: per lane the exact
/// SquaredDistanceSegmentToSegment (including the SegmentsIntersect
/// orientation/on-segment tests, evaluated branchlessly with identical
/// comparison outcomes), min-reduced. +infinity when segs.n == 0.
double SegmentToPolylineSquaredDistance(double qax, double qay, double qbx,
                                        double qby, const SegmentSoA& segs);

/// Store variant of SegmentToPolylineSquaredDistance: lane i gets the exact
/// SquaredDistanceSegmentToSegment between the query segment and target
/// segment i. Same concatenated-SoA / ranged-min contract as
/// SegmentsSquaredDistanceToPoint. NOTE: like the reduced form, the
/// degenerate-segment SoA encoding of a single-point polyline is NOT
/// bit-safe here — stage single-point paths through the point kernels.
void SegmentToSegmentsSquaredDistances(double qax, double qay, double qbx,
                                       double qby, const SegmentSoA& segs,
                                       double* out);

/// Lane i: Distance((ax[i], ay[i]), (bx[i], by[i])) < r[i] — the naive
/// engine's strict pair predicate.
void PairsWithinRadii(const double* ax, const double* ay, const double* bx,
                      const double* by, const double* r, size_t n,
                      uint8_t* within);

/// Lane i: containment of (px[i], py[i]) in circle i (strict uses
/// Circle::ContainsStrict's d^2 < r^2, else Contains' d^2 <= r^2).
void CirclesContainPoints(const double* cx, const double* cy,
                          const double* cr, const double* px,
                          const double* py, size_t n, bool strict,
                          uint8_t* inside);

/// Lane i: DistanceCircleToCircle(circle a_i, circle b_i) < thr[i]
/// (strict — the per-epoch pair check's ShapeMinDistanceBelow form).
void CirclePairsGapBelow(const double* ax, const double* ay, const double* ar,
                         const double* bx, const double* by, const double* br,
                         const double* thr, size_t n, uint8_t* below);

}  // namespace simd
}  // namespace proxdet

#endif  // PROXDET_GEOM_SIMD_SIMD_H_
