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
/// a lane computes the identical IEEE-754 double the scalar call would.
/// Vectorization only runs independent lanes side by side; the one place a
/// cross-lane operation appears (min-reductions in the *SquaredDistance*
/// scans) it folds non-negative finite values, where min is associative
/// and commutative *in value and in bits* (no NaNs, no -0.0 can arise from
/// dx*dx + dy*dy forms), and IEEE sqrt is correctly rounded hence
/// monotone, so sqrt(min d^2) == min sqrt(d^2) bit-for-bit. DESIGN.md §11
/// spells the argument out.
///
/// Backends: a scalar reference (always compiled; also the tail loop of
/// every vector kernel), a 4-wide AVX2 unit and an 8-wide AVX-512F unit
/// (compiled whenever the compiler accepts -mavx2 / -mavx512f). Dispatch picks the widest backend the running CPU supports —
/// but only after a one-time bitwise self-check against the scalar
/// reference on deterministic pseudo-random batches; a backend that fails
/// verification is never used (the "runtime-verified scalar fallback").
/// Vector translation units are built with -ffp-contract=off so no FMA
/// contraction can perturb the scalar-identical operation sequence.

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

enum class Backend : int { kScalar = 0, kW4 = 1, kW8 = 2 };

/// The backend dispatch selected (after the runtime self-check). Stable
/// after the first call.
Backend ActiveBackend();
const char* BackendName(Backend b);
/// True when at least one vector backend is compiled in (the compiler
/// accepted its arch flag) — though the CPU still decides what runs.
bool CompiledWithSimd();
/// False only when a compiled vector backend failed the startup bitwise
/// self-check and was rejected (the run then proceeds on scalar).
bool SelfCheckPassed();
/// Test hook: force dispatch onto a specific backend. Returns false (and
/// changes nothing) when that backend is not compiled in or not supported
/// by the CPU. Not thread-safe; call before any parallel region. The
/// PROXDET_SIMD_FORCE environment variable (scalar|w4|w8) applies the same
/// override at first use.
bool SetActiveBackendForTest(Backend b);

// ---------------------------------------------------------------------------
// Batched kernels (dispatched). All outputs are written for all n lanes;
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

// ---------------------------------------------------------------------------
// Scalar reference implementations (never vectorized; the dispatch target
// of the scalar backend, the tail loop of the vector backends, and the
// ground truth the property tests and the startup self-check compare
// against bitwise).
// ---------------------------------------------------------------------------
namespace scalar {
void SegmentSquaredDistanceToPoints(double ax, double ay, double dx,
                                    double dy, double len2, const double* px,
                                    const double* py, size_t n, double* out);
double PolylineSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                      double py);
void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                    double py, double* out);
double SegmentToPolylineSquaredDistance(double qax, double qay, double qbx,
                                        double qby, const SegmentSoA& segs);
void SegmentToSegmentsSquaredDistances(double qax, double qay, double qbx,
                                       double qby, const SegmentSoA& segs,
                                       double* out);
void PairsWithinRadii(const double* ax, const double* ay, const double* bx,
                      const double* by, const double* r, size_t n,
                      uint8_t* within);
void CirclesContainPoints(const double* cx, const double* cy,
                          const double* cr, const double* px,
                          const double* py, size_t n, bool strict,
                          uint8_t* inside);
void CirclePairsGapBelow(const double* ax, const double* ay, const double* ar,
                         const double* bx, const double* by, const double* br,
                         const double* thr, size_t n, uint8_t* below);
}  // namespace scalar

}  // namespace simd
}  // namespace proxdet

#endif  // PROXDET_GEOM_SIMD_SIMD_H_
