#ifndef PROXDET_GEOM_SIMD_KERNELS_IMPL_H_
#define PROXDET_GEOM_SIMD_KERNELS_IMPL_H_

// Width-generic vector kernels over GCC vector extensions. Included ONLY by
// the per-arch translation units (kernels_w4.cc, kernels_w8.cc), which are
// compiled with their arch flag plus -ffp-contract=off -fno-math-errno; the
// template must never be instantiated in a TU without those options.
//
// Bit-exactness discipline, applied uniformly below:
//  * a lane is one independent batch item, and the per-lane expression is
//    the scalar library's expression with identical operation order;
//  * branches in the scalar code become Select() on comparison masks —
//    Select picks one of two fully-computed values, so the chosen lane
//    value equals the scalar branch result bit-for-bit;
//  * per-lane divisions that the scalar code guards behind `len2 <= 0`
//    divide by a Select()-ed safe divisor instead, and the quotient is
//    Select()-ed away for degenerate lanes (no float division by zero, so
//    the UBSan leg stays clean even with -fsanitize=float-divide-by-zero);
//  * cross-lane min reductions only ever fold squared distances —
//    non-negative finite doubles, for which min is order-independent in
//    value and in bits — so reduce order vs the scalar loop is immaterial;
//  * every kernel finishes with a scalar-reference tail loop for n % W.

#include <limits>

#include "geom/simd/kernel_table.h"
#include "geom/simd/simd.h"

namespace proxdet {
namespace simd {
namespace internal {

template <typename VD, typename VL, int W>
struct Kernels {
  // ---- lane plumbing -------------------------------------------------------

  static VD Load(const double* p) {
    VD v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
  }
  static void Store(double* p, VD v) { __builtin_memcpy(p, &v, sizeof(v)); }
  static VD Splat(double x) {
    VD v;
    for (int l = 0; l < W; ++l) v[l] = x;
    return v;
  }
  // Comparison results are same-size integer vectors; the element type GCC
  // picks need not be long long exactly, so go through a value cast.
  static VL Lt(VD a, VD b) { return (VL)(a < b); }
  static VL Le(VD a, VD b) { return (VL)(a <= b); }
  static VL Gt(VD a, VD b) { return (VL)(a > b); }
  /// Per-lane `m ? a : b` on fully-computed values (bitwise blend).
  static VD Select(VL m, VD a, VD b) {
    return (VD)((m & (VL)a) | (~m & (VL)b));
  }
  static VD Sqrt(VD v) {
    // IEEE-754 sqrt is correctly rounded, so per-lane __builtin_sqrt equals
    // std::sqrt bitwise; with -fno-math-errno this loop vectorizes.
    VD r;
    for (int l = 0; l < W; ++l) r[l] = __builtin_sqrt(v[l]);
    return r;
  }
  static void StoreMask(uint8_t* out, VL m) {
    for (int l = 0; l < W; ++l) out[l] = m[l] ? 1 : 0;
  }
  /// Order-independent min fold (callers only pass non-negative finite
  /// values); seeded like the scalar scans with +infinity.
  static double ReduceMin(VD v, double seed) {
    double best = seed;
    for (int l = 0; l < W; ++l) best = v[l] < best ? v[l] : best;
    return best;
  }

  // ---- shared geometric pieces --------------------------------------------

  /// SqDistPointSeg with per-lane segments (the degenerate guard becomes a
  /// mask; division uses the safe-divisor trick described at the top).
  static VD SqDistPointSegLaneSeg(VD px, VD py, VD ax, VD ay, VD dx, VD dy,
                                  VD len2) {
    const VD zero = Splat(0.0);
    const VD one = Splat(1.0);
    const VL degen = Le(len2, zero);
    const VD safe = Select(degen, one, len2);
    const VD rx = px - ax;
    const VD ry = py - ay;
    const VD dot = rx * dx + ry * dy;
    VD t = dot / safe;
    t = Select(Lt(t, zero), zero, Select(Lt(one, t), one, t));
    VD cx = ax + dx * t;
    VD cy = ay + dy * t;
    cx = Select(degen, ax, cx);
    cy = Select(degen, ay, cy);
    const VD ex = px - cx;
    const VD ey = py - cy;
    return ex * ex + ey * ey;
  }

  /// SqDistPointSeg with per-lane points against ONE segment (uniform
  /// operands, so the degenerate guard stays a plain branch).
  static VD SqDistPointSegUniformSeg(VD px, VD py, double ax, double ay,
                                     double dx, double dy, double len2) {
    const VD vax = Splat(ax);
    const VD vay = Splat(ay);
    if (len2 <= 0.0) {
      const VD ex = px - vax;
      const VD ey = py - vay;
      return ex * ex + ey * ey;
    }
    const VD zero = Splat(0.0);
    const VD one = Splat(1.0);
    const VD vdx = Splat(dx);
    const VD vdy = Splat(dy);
    const VD rx = px - vax;
    const VD ry = py - vay;
    const VD dot = rx * vdx + ry * vdy;
    VD t = dot / Splat(len2);
    t = Select(Lt(t, zero), zero, Select(Lt(one, t), one, t));
    const VD cx = vax + vdx * t;
    const VD cy = vay + vdy * t;
    const VD ex = px - cx;
    const VD ey = py - cy;
    return ex * ex + ey * ey;
  }

  /// OnSegment's 1e-12-padded box test, per-lane points vs per-lane
  /// segments given by raw endpoints.
  static VL OnSegV(VD px, VD py, VD sax, VD say, VD sbx, VD sby) {
    const VD eps = Splat(1e-12);
    const VD minx = Select(Lt(sax, sbx), sax, sbx);
    const VD maxx = Select(Lt(sbx, sax), sax, sbx);
    const VD miny = Select(Lt(say, sby), say, sby);
    const VD maxy = Select(Lt(sby, say), say, sby);
    return Le(minx - eps, px) & Le(px, maxx + eps) & Le(miny - eps, py) &
           Le(py, maxy + eps);
  }

  // ---- kernels -------------------------------------------------------------

  static void SegmentSquaredDistanceToPoints(double ax, double ay, double dx,
                                             double dy, double len2,
                                             const double* px,
                                             const double* py, size_t n,
                                             double* out) {
    size_t i = 0;
    for (; i + W <= n; i += W) {
      Store(out + i, SqDistPointSegUniformSeg(Load(px + i), Load(py + i), ax,
                                              ay, dx, dy, len2));
    }
    if (i < n) {
      scalar::SegmentSquaredDistanceToPoints(ax, ay, dx, dy, len2, px + i,
                                             py + i, n - i, out + i);
    }
  }

  static double PolylineSquaredDistanceToPoint(const SegmentSoA& segs,
                                               double px, double py) {
    const VD vpx = Splat(px);
    const VD vpy = Splat(py);
    VD best = Splat(std::numeric_limits<double>::infinity());
    size_t j = 0;
    for (; j + W <= segs.n; j += W) {
      const VD d = SqDistPointSegLaneSeg(vpx, vpy, Load(segs.ax + j),
                                         Load(segs.ay + j), Load(segs.dx + j),
                                         Load(segs.dy + j),
                                         Load(segs.len2 + j));
      best = Select(Lt(d, best), d, best);
    }
    double b = ReduceMin(best, std::numeric_limits<double>::infinity());
    if (j < segs.n) {
      const SegmentSoA tail{segs.ax + j, segs.ay + j, segs.bx + j,
                            segs.by + j, segs.dx + j, segs.dy + j,
                            segs.len2 + j, segs.n - j};
      const double tb = scalar::PolylineSquaredDistanceToPoint(tail, px, py);
      b = tb < b ? tb : b;
    }
    return b;
  }

  static void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs,
                                             double px, double py,
                                             double* out) {
    const VD vpx = Splat(px);
    const VD vpy = Splat(py);
    size_t j = 0;
    for (; j + W <= segs.n; j += W) {
      Store(out + j,
            SqDistPointSegLaneSeg(vpx, vpy, Load(segs.ax + j),
                                  Load(segs.ay + j), Load(segs.dx + j),
                                  Load(segs.dy + j), Load(segs.len2 + j)));
    }
    if (j < segs.n) {
      const SegmentSoA tail{segs.ax + j, segs.ay + j, segs.bx + j,
                            segs.by + j, segs.dx + j, segs.dy + j,
                            segs.len2 + j, segs.n - j};
      scalar::SegmentsSquaredDistanceToPoint(tail, px, py, out + j);
    }
  }

  /// Per-lane SquaredDistanceSegmentToSegment of the uniform query segment
  /// (scalar form qa/qd/qlen2, splatted form passed alongside) against one
  /// W-wide block of target lane segments starting at index j. The shared
  /// body of the reduced and store seg-to-segments kernels.
  static VD SqDistSegSegBlock(double qax_s, double qay_s, double qdx_s,
                              double qdy_s, double qlen2_s, VD qax, VD qay,
                              VD qbx, VD qby, VD qdx, VD qdy,
                              const SegmentSoA& segs, size_t j) {
    const VD eps = Splat(1e-12);
    const VD neps = Splat(-1e-12);
    const VD zero = Splat(0.0);
    const VD sax = Load(segs.ax + j);
    const VD say = Load(segs.ay + j);
    const VD sbx = Load(segs.bx + j);
    const VD sby = Load(segs.by + j);
    const VD sdx = Load(segs.dx + j);
    const VD sdy = Load(segs.dy + j);
    const VD slen2 = Load(segs.len2 + j);
    // Orientation signs as (positive, negative) mask pairs; cross products
    // written exactly as Orientation's (b - a).Cross(c - a).
    const VD c1 = qdx * (say - qay) - qdy * (sax - qax);
    const VD c2 = qdx * (sby - qay) - qdy * (sbx - qax);
    const VD c3 = sdx * (qay - say) - sdy * (qax - sax);
    const VD c4 = sdx * (qby - say) - sdy * (qbx - sax);
    const VL p1 = Gt(c1, eps), n1 = Lt(c1, neps);
    const VL p2 = Gt(c2, eps), n2 = Lt(c2, neps);
    const VL p3 = Gt(c3, eps), n3 = Lt(c3, neps);
    const VL p4 = Gt(c4, eps), n4 = Lt(c4, neps);
    // o1 != o2 in sign space is (p1 ^ p2) | (n1 ^ n2); oK == 0 is
    // neither-positive-nor-negative.
    const VL o12neq = (p1 ^ p2) | (n1 ^ n2);
    const VL o34neq = (p3 ^ p4) | (n3 ^ n4);
    const VL z1 = ~p1 & ~n1;
    const VL z2 = ~p2 & ~n2;
    const VL z3 = ~p3 & ~n3;
    const VL z4 = ~p4 & ~n4;
    const VL inter = (o12neq & o34neq) |
                     (z1 & OnSegV(sax, say, qax, qay, qbx, qby)) |
                     (z2 & OnSegV(sbx, sby, qax, qay, qbx, qby)) |
                     (z3 & OnSegV(qax, qay, sax, say, sbx, sby)) |
                     (z4 & OnSegV(qbx, qby, sax, say, sbx, sby));
    // The four endpoint distances, exactly SquaredDistanceSegmentToSegment's
    // operand orders (d1/d2 against the target lane segment, d3/d4 against
    // the uniform query segment).
    const VD d1 = SqDistPointSegLaneSeg(qax, qay, sax, say, sdx, sdy, slen2);
    const VD d2 = SqDistPointSegLaneSeg(qbx, qby, sax, say, sdx, sdy, slen2);
    const VD d3 = SqDistPointSegUniformSeg(sax, say, qax_s, qay_s, qdx_s,
                                           qdy_s, qlen2_s);
    const VD d4 = SqDistPointSegUniformSeg(sbx, sby, qax_s, qay_s, qdx_s,
                                           qdy_s, qlen2_s);
    const VD m12 = Select(Lt(d2, d1), d2, d1);
    const VD m34 = Select(Lt(d4, d3), d4, d3);
    const VD dmin = Select(Lt(m34, m12), m34, m12);
    return Select(inter, zero, dmin);
  }

  static double SegmentToPolylineSquaredDistance(double qax_s, double qay_s,
                                                 double qbx_s, double qby_s,
                                                 const SegmentSoA& segs) {
    const double qdx_s = qbx_s - qax_s;
    const double qdy_s = qby_s - qay_s;
    const double qlen2_s = qdx_s * qdx_s + qdy_s * qdy_s;
    const VD qax = Splat(qax_s);
    const VD qay = Splat(qay_s);
    const VD qbx = Splat(qbx_s);
    const VD qby = Splat(qby_s);
    const VD qdx = Splat(qdx_s);
    const VD qdy = Splat(qdy_s);
    VD best = Splat(std::numeric_limits<double>::infinity());
    size_t j = 0;
    for (; j + W <= segs.n; j += W) {
      const VD d = SqDistSegSegBlock(qax_s, qay_s, qdx_s, qdy_s, qlen2_s,
                                     qax, qay, qbx, qby, qdx, qdy, segs, j);
      best = Select(Lt(d, best), d, best);
    }
    double b = ReduceMin(best, std::numeric_limits<double>::infinity());
    if (j < segs.n) {
      const SegmentSoA tail{segs.ax + j, segs.ay + j, segs.bx + j,
                            segs.by + j, segs.dx + j, segs.dy + j,
                            segs.len2 + j, segs.n - j};
      const double tb = scalar::SegmentToPolylineSquaredDistance(
          qax_s, qay_s, qbx_s, qby_s, tail);
      b = tb < b ? tb : b;
    }
    return b;
  }

  static void SegmentToSegmentsSquaredDistances(double qax_s, double qay_s,
                                                double qbx_s, double qby_s,
                                                const SegmentSoA& segs,
                                                double* out) {
    const double qdx_s = qbx_s - qax_s;
    const double qdy_s = qby_s - qay_s;
    const double qlen2_s = qdx_s * qdx_s + qdy_s * qdy_s;
    const VD qax = Splat(qax_s);
    const VD qay = Splat(qay_s);
    const VD qbx = Splat(qbx_s);
    const VD qby = Splat(qby_s);
    const VD qdx = Splat(qdx_s);
    const VD qdy = Splat(qdy_s);
    size_t j = 0;
    for (; j + W <= segs.n; j += W) {
      Store(out + j,
            SqDistSegSegBlock(qax_s, qay_s, qdx_s, qdy_s, qlen2_s, qax, qay,
                              qbx, qby, qdx, qdy, segs, j));
    }
    if (j < segs.n) {
      const SegmentSoA tail{segs.ax + j, segs.ay + j, segs.bx + j,
                            segs.by + j, segs.dx + j, segs.dy + j,
                            segs.len2 + j, segs.n - j};
      scalar::SegmentToSegmentsSquaredDistances(qax_s, qay_s, qbx_s, qby_s,
                                                tail, out + j);
    }
  }

  static void PairsWithinRadii(const double* ax, const double* ay,
                               const double* bx, const double* by,
                               const double* r, size_t n, uint8_t* within) {
    size_t i = 0;
    for (; i + W <= n; i += W) {
      const VD dx = Load(ax + i) - Load(bx + i);
      const VD dy = Load(ay + i) - Load(by + i);
      StoreMask(within + i, Lt(Sqrt(dx * dx + dy * dy), Load(r + i)));
    }
    if (i < n) {
      scalar::PairsWithinRadii(ax + i, ay + i, bx + i, by + i, r + i, n - i,
                               within + i);
    }
  }

  static void CirclesContainPoints(const double* cx, const double* cy,
                                   const double* cr, const double* px,
                                   const double* py, size_t n, bool strict,
                                   uint8_t* inside) {
    size_t i = 0;
    for (; i + W <= n; i += W) {
      const VD dx = Load(cx + i) - Load(px + i);
      const VD dy = Load(cy + i) - Load(py + i);
      const VD d2 = dx * dx + dy * dy;
      const VD r = Load(cr + i);
      const VD r2 = r * r;
      StoreMask(inside + i, strict ? Lt(d2, r2) : Le(d2, r2));
    }
    if (i < n) {
      scalar::CirclesContainPoints(cx + i, cy + i, cr + i, px + i, py + i,
                                   n - i, strict, inside + i);
    }
  }

  static void CirclePairsGapBelow(const double* ax, const double* ay,
                                  const double* ar, const double* bx,
                                  const double* by, const double* br,
                                  const double* thr, size_t n,
                                  uint8_t* below) {
    const VD zero = Splat(0.0);
    size_t i = 0;
    for (; i + W <= n; i += W) {
      const VD dx = Load(ax + i) - Load(bx + i);
      const VD dy = Load(ay + i) - Load(by + i);
      const VD v = Sqrt(dx * dx + dy * dy) - Load(ar + i) - Load(br + i);
      const VD gap = Select(Lt(zero, v), v, zero);
      StoreMask(below + i, Lt(gap, Load(thr + i)));
    }
    if (i < n) {
      scalar::CirclePairsGapBelow(ax + i, ay + i, ar + i, bx + i, by + i,
                                  br + i, thr + i, n - i, below + i);
    }
  }
};

}  // namespace internal
}  // namespace simd
}  // namespace proxdet

#endif  // PROXDET_GEOM_SIMD_KERNELS_IMPL_H_
