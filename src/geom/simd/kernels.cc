// The batched kernels. Every function here replicates the scalar geometry
// in src/geom operation for operation (see the per-function notes naming
// the replicated source). This TU is compiled with -ffp-contract=off, so
// no lane sees a fused multiply-add the per-pair code would not perform.

#include <cmath>
#include <limits>

#include "geom/simd/simd.h"

namespace proxdet {
namespace simd {

namespace {

/// SquaredDistancePointToSegment(p, s) given the precomputed segment form
/// (a, d = b - a, len2 = |d|^2). Mirrors geom/segment.cc:
/// ClosestPointOnSegment (degenerate guard, clamp(dot/len2)) followed by
/// SquaredDistance(p, closest).
inline double SqDistPointSeg(double px, double py, double ax, double ay,
                             double dx, double dy, double len2) {
  double cx, cy;
  if (len2 <= 0.0) {  // Degenerate segment: closest point is a.
    cx = ax;
    cy = ay;
  } else {
    const double rx = px - ax;
    const double ry = py - ay;
    const double dot = rx * dx + ry * dy;  // (p - a).Dot(d)
    double t = dot / len2;
    t = t < 0.0 ? 0.0 : (1.0 < t ? 1.0 : t);  // std::clamp(t, 0, 1)
    cx = ax + dx * t;  // a + d * t
    cy = ay + dy * t;
  }
  const double ex = px - cx;  // SquaredDistance(p, closest)
  const double ey = py - cy;
  return ex * ex + ey * ey;
}

/// Orientation(a, b, c) with b - a passed precomputed: the sign of
/// (b - a).Cross(c - a) under the library's 1e-12 tolerance.
inline int OrientSign(double abx, double aby, double acx, double acy) {
  const double cross = abx * acy - aby * acx;
  const double eps = 1e-12;
  if (cross > eps) return 1;
  if (cross < -eps) return -1;
  return 0;
}

/// OnSegment(p, s) — the 1e-12-padded bounding-box test of segment.cc.
inline bool OnSeg(double px, double py, double sax, double say, double sbx,
                  double sby) {
  const double minx = sax < sbx ? sax : sbx;  // std::min(a.x, b.x)
  const double maxx = sbx < sax ? sax : sbx;  // std::max(a.x, b.x)
  const double miny = say < sby ? say : sby;
  const double maxy = sby < say ? say : sby;
  return minx - 1e-12 <= px && px <= maxx + 1e-12 && miny - 1e-12 <= py &&
         py <= maxy + 1e-12;
}

/// SquaredDistanceSegmentToSegment(q, s) with both segments in precomputed
/// form; replicates SegmentsIntersect + the four endpoint distances.
inline double SqDistSegSeg(double qax, double qay, double qbx, double qby,
                           double qdx, double qdy, double qlen2, double sax,
                           double say, double sbx, double sby, double sdx,
                           double sdy, double slen2) {
  const int o1 = OrientSign(qdx, qdy, sax - qax, say - qay);
  const int o2 = OrientSign(qdx, qdy, sbx - qax, sby - qay);
  const int o3 = OrientSign(sdx, sdy, qax - sax, qay - say);
  const int o4 = OrientSign(sdx, sdy, qbx - sax, qby - say);
  bool intersect = (o1 != o2 && o3 != o4);
  if (!intersect && o1 == 0 && OnSeg(sax, say, qax, qay, qbx, qby)) {
    intersect = true;
  }
  if (!intersect && o2 == 0 && OnSeg(sbx, sby, qax, qay, qbx, qby)) {
    intersect = true;
  }
  if (!intersect && o3 == 0 && OnSeg(qax, qay, sax, say, sbx, sby)) {
    intersect = true;
  }
  if (!intersect && o4 == 0 && OnSeg(qbx, qby, sax, say, sbx, sby)) {
    intersect = true;
  }
  if (intersect) return 0.0;
  const double d1 = SqDistPointSeg(qax, qay, sax, say, sdx, sdy, slen2);
  const double d2 = SqDistPointSeg(qbx, qby, sax, say, sdx, sdy, slen2);
  const double d3 = SqDistPointSeg(sax, say, qax, qay, qdx, qdy, qlen2);
  const double d4 = SqDistPointSeg(sbx, sby, qax, qay, qdx, qdy, qlen2);
  const double m12 = d2 < d1 ? d2 : d1;  // std::min(d1, d2)
  const double m34 = d4 < d3 ? d4 : d3;
  return m34 < m12 ? m34 : m12;
}

}  // namespace

void SegmentSquaredDistanceToPoints(double ax, double ay, double dx,
                                    double dy, double len2, const double* px,
                                    const double* py, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SqDistPointSeg(px[i], py[i], ax, ay, dx, dy, len2);
  }
}

double PolylineSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                      double py) {
  // The segment loop runs in index order exactly like
  // Polyline::SquaredDistanceToPoint.
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < segs.n; ++j) {
    const double d = SqDistPointSeg(px, py, segs.ax[j], segs.ay[j],
                                    segs.dx[j], segs.dy[j], segs.len2[j]);
    best = d < best ? d : best;  // std::min(best, d)
  }
  return best;
}

void SegmentsSquaredDistanceToPoint(const SegmentSoA& segs, double px,
                                    double py, double* out) {
  // Lane = segment: the loop body of PolylineSquaredDistanceToPoint with a
  // store in place of the min fold.
  for (size_t j = 0; j < segs.n; ++j) {
    out[j] = SqDistPointSeg(px, py, segs.ax[j], segs.ay[j], segs.dx[j],
                            segs.dy[j], segs.len2[j]);
  }
}

double SegmentToPolylineSquaredDistance(double qax, double qay, double qbx,
                                        double qby, const SegmentSoA& segs) {
  // The query segment's derived form, computed once exactly as Segment
  // construction + ClosestPointOnSegment would per call.
  const double qdx = qbx - qax;
  const double qdy = qby - qay;
  const double qlen2 = qdx * qdx + qdy * qdy;
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < segs.n; ++j) {
    const double d =
        SqDistSegSeg(qax, qay, qbx, qby, qdx, qdy, qlen2, segs.ax[j],
                     segs.ay[j], segs.bx[j], segs.by[j], segs.dx[j],
                     segs.dy[j], segs.len2[j]);
    best = d < best ? d : best;
  }
  return best;
}

void SegmentToSegmentsSquaredDistances(double qax, double qay, double qbx,
                                       double qby, const SegmentSoA& segs,
                                       double* out) {
  // Lane = target segment: SegmentToPolylineSquaredDistance's loop body
  // with a store in place of the min fold (same once-per-call query form).
  const double qdx = qbx - qax;
  const double qdy = qby - qay;
  const double qlen2 = qdx * qdx + qdy * qdy;
  for (size_t j = 0; j < segs.n; ++j) {
    out[j] = SqDistSegSeg(qax, qay, qbx, qby, qdx, qdy, qlen2, segs.ax[j],
                          segs.ay[j], segs.bx[j], segs.by[j], segs.dx[j],
                          segs.dy[j], segs.len2[j]);
  }
}

void PairsWithinRadii(const double* ax, const double* ay, const double* bx,
                      const double* by, const double* r, size_t n,
                      uint8_t* within) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = ax[i] - bx[i];  // Distance(a, b): (a - b).Norm()
    const double dy = ay[i] - by[i];
    within[i] = std::sqrt(dx * dx + dy * dy) < r[i];
  }
}

void CirclesContainPoints(const double* cx, const double* cy,
                          const double* cr, const double* px,
                          const double* py, size_t n, bool strict,
                          uint8_t* inside) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = cx[i] - px[i];  // SquaredDistance(center, p)
    const double dy = cy[i] - py[i];
    const double d2 = dx * dx + dy * dy;
    const double r2 = cr[i] * cr[i];
    inside[i] = strict ? d2 < r2 : d2 <= r2;
  }
}

void CirclePairsGapBelow(const double* ax, const double* ay, const double* ar,
                         const double* bx, const double* by, const double* br,
                         const double* thr, size_t n, uint8_t* below) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = ax[i] - bx[i];
    const double dy = ay[i] - by[i];
    const double v = std::sqrt(dx * dx + dy * dy) - ar[i] - br[i];
    const double gap = 0.0 < v ? v : 0.0;  // DistanceCircleToCircle
    below[i] = gap < thr[i];
  }
}

Backend ActiveBackend() { return Backend::kScalar; }

const char* BackendName(Backend) { return "scalar"; }

}  // namespace simd
}  // namespace proxdet
