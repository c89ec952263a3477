#include "core/stripe_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <variant>

#include "geom/anchor_grid.h"
#include "geom/simd/simd.h"

namespace proxdet {

namespace {

/// Distance from one path segment to a friend's region shape. Bit-exact
/// with (and previously implemented as) ShapeMinDistance between a
/// zero-radius temporary Stripe over {a, b} and the shape — but evaluated
/// directly through the batched kernels, with the segment's derived form
/// computed once and no heap allocation: this runs friends x m times per
/// rebuild and was the top profile entry before the rewrite. The
/// zero-radius term the temporary contributed (d - 0.0) is an exact no-op
/// on the non-negative distances and is dropped.
double SegmentToShape(const Vec2& a, const Vec2& b,
                      const SafeRegionShape& shape, int epoch) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  return std::visit(
      [&](const auto& s) -> double {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Circle> ||
                      std::is_same_v<T, MovingCircle>) {
          Circle c;
          if constexpr (std::is_same_v<T, MovingCircle>) {
            c = s.AtEpoch(epoch);
          } else {
            c = s;
          }
          double sq;
          simd::SegmentSquaredDistanceToPoints(a.x, a.y, dx, dy, len2,
                                               &c.center.x, &c.center.y, 1,
                                               &sq);
          return std::max(0.0, std::sqrt(sq) - c.radius);
        } else if constexpr (std::is_same_v<T, Stripe>) {
          // Stripe::DistanceToStripe's branch structure with the temporary
          // as the (always 2-point) left-hand path.
          double d;
          if (s.anchor_count() == 0) {
            d = std::numeric_limits<double>::infinity();
          } else if (s.anchor_count() == 1) {
            double sq;
            simd::SegmentSquaredDistanceToPoints(a.x, a.y, dx, dy, len2,
                                                 s.anchor_xs(), s.anchor_ys(),
                                                 1, &sq);
            d = std::sqrt(sq);
          } else {
            d = std::sqrt(simd::SegmentToPolylineSquaredDistance(
                a.x, a.y, b.x, b.y, s.segments_soa()));
          }
          return std::max(0.0, d - s.radius());
        } else {  // ConvexPolygon: cold — keep the legacy exact reduction.
          const Stripe segment_as_stripe(Polyline({a, b}), 0.0);
          return ShapeMinDistance(SafeRegionShape(segment_as_stripe), shape,
                                  epoch);
        }
      },
      shape);
}

/// Friend constraints staged once per build for the per-m scans: one SoA
/// batch of point-like shapes (circles, moving circles frozen at the build
/// epoch, single-anchor stripes), one concatenated segment SoA across all
/// polyline stripes, and the rare cold shapes kept on the per-friend path.
/// Each horizon step then issues ~3 kernel calls over the whole friend set
/// instead of one or two tiny calls per friend; the per-friend values are
/// recovered by ranged reductions that are bit-exact with the per-friend
/// calls (see the concatenated-SoA contract in geom/simd/simd.h).
struct StagedConstraints {
  // Point-like friends: the center whose segment distance is taken, and the
  // radius subtracted from it. pt_friend[k] is the friends[] index.
  std::vector<double> ptx, pty, ptr;
  std::vector<size_t> pt_friend;
  // Stripes with >= 2 anchors: segments concatenated in friend order. The
  // degenerate single-anchor encoding is NOT bit-safe for the seg-seg
  // kernel, so single-anchor stripes go in the point batch instead —
  // exactly the branch SegmentToShape / Stripe::DistanceToPoint take.
  std::vector<double> sax, say, sbx, sby, sdx, sdy, slen2;
  struct Range {
    size_t friend_index;
    size_t begin, end;  // lane range in the concatenated arrays
    double radius;
  };
  std::vector<Range> ranges;
  std::vector<size_t> cold;  // ConvexPolygon: legacy per-friend reduction
  // Kernel outputs, sized to the batches.
  std::vector<double> pt_sq, seg_sq, pdtp_sq;

  simd::SegmentSoA view() const {
    return simd::SegmentSoA{sax.data(), say.data(), sbx.data(),  sby.data(),
                            sdx.data(), sdy.data(), slen2.data(), sax.size()};
  }
};

void StageConstraints(const std::vector<StripeFriendConstraint>& friends,
                      int epoch, StagedConstraints& out) {
  out.ptx.clear();
  out.pty.clear();
  out.ptr.clear();
  out.pt_friend.clear();
  out.sax.clear();
  out.say.clear();
  out.sbx.clear();
  out.sby.clear();
  out.sdx.clear();
  out.sdy.clear();
  out.slen2.clear();
  out.ranges.clear();
  out.cold.clear();
  for (size_t i = 0; i < friends.size(); ++i) {
    std::visit(
        [&](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, Circle> ||
                        std::is_same_v<T, MovingCircle>) {
            Circle c;
            if constexpr (std::is_same_v<T, MovingCircle>) {
              c = s.AtEpoch(epoch);
            } else {
              c = s;
            }
            out.ptx.push_back(c.center.x);
            out.pty.push_back(c.center.y);
            out.ptr.push_back(c.radius);
            out.pt_friend.push_back(i);
          } else if constexpr (std::is_same_v<T, Stripe>) {
            // No anchors: both distances are +infinity, a min no-op — drop.
            if (s.anchor_count() == 0) return;
            if (s.anchor_count() == 1) {
              out.ptx.push_back(s.anchor_xs()[0]);
              out.pty.push_back(s.anchor_ys()[0]);
              out.ptr.push_back(s.radius());
              out.pt_friend.push_back(i);
              return;
            }
            const simd::SegmentSoA segs = s.segments_soa();
            const size_t begin = out.sax.size();
            out.sax.insert(out.sax.end(), segs.ax, segs.ax + segs.n);
            out.say.insert(out.say.end(), segs.ay, segs.ay + segs.n);
            out.sbx.insert(out.sbx.end(), segs.bx, segs.bx + segs.n);
            out.sby.insert(out.sby.end(), segs.by, segs.by + segs.n);
            out.sdx.insert(out.sdx.end(), segs.dx, segs.dx + segs.n);
            out.sdy.insert(out.sdy.end(), segs.dy, segs.dy + segs.n);
            out.slen2.insert(out.slen2.end(), segs.len2, segs.len2 + segs.n);
            out.ranges.push_back({i, begin, begin + segs.n, s.radius()});
          } else {  // ConvexPolygon
            out.cold.push_back(i);
          }
        },
        *friends[i].region);
  }
  out.pt_sq.resize(out.ptx.size());
  out.seg_sq.resize(out.sax.size());
  out.pdtp_sq.resize(out.sax.size());
}

/// Per-build working memory, reused across the ~tens of thousands of
/// rebuilds a run performs (the builder runs on pool threads; one scratch
/// per thread).
struct BuildScratch {
  StagedConstraints staged;
  std::vector<Vec2> predicted;
  std::vector<FriendGap> gaps;
  std::vector<Vec2> anchors;
};

BuildScratch& Scratch() {
  thread_local BuildScratch scratch;
  return scratch;
}

}  // namespace

StripeBuildResult BuildPredictiveStripe(
    const Vec2& current, const std::vector<Vec2>& predicted_in,
    const std::vector<StripeFriendConstraint>& friends, double user_speed,
    const StripeBuildConfig& config, int epoch) {
  user_speed = std::max(user_speed, 1e-6);
  BuildScratch& scratch = Scratch();
  // Quantize the anchors up front: all clearance and radius math below then
  // sees the snapped coordinates, so the safety guarantee is established for
  // the stripe the client will actually receive (wire-compressible as-is).
  const Vec2 current_q = SnapToAnchorGrid(current);
  std::vector<Vec2>& predicted = scratch.predicted;
  predicted.clear();
  for (const Vec2& p : predicted_in) predicted.push_back(SnapToAnchorGrid(p));
  const auto radius_cap_for = [&config](int m) {
    return std::max(config.sigma_cap_mult * config.SigmaForStep(m),
                    kStripeMinRadius);
  };

  StagedConstraints& staged = scratch.staged;
  StageConstraints(friends, epoch, staged);

  // One point against every staged point-like friend: DistancePointToCircle's
  // expression (== the degenerate single-anchor stripe distance, bit for
  // bit).
  const auto point_friend_distance = [&staged](size_t k, double px,
                                               double py) {
    const double dx = px - staged.ptx[k];
    const double dy = py - staged.pty[k];
    const double v = std::sqrt(dx * dx + dy * dy) - staged.ptr[k];
    return 0.0 < v ? v : 0.0;
  };
  // Ranged min over a store-kernel output: PolylineSquaredDistanceToPoint's
  // fold, restricted to one friend's lanes.
  const auto range_min = [](const std::vector<double>& sq,
                            const StagedConstraints::Range& r) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t j = r.begin; j < r.end; ++j) {
      const double d = sq[j];
      best = d < best ? d : best;  // std::min's fold, in lane order
    }
    return best;
  };

  // Anchors: current location, then the enclosed predicted points. Gap
  // prefix minima y0_f(m) accumulate as m grows one segment at a time.
  // Friends dropped from staging (empty-path stripes) keep the +infinity
  // seed — exactly their ShapeDistanceToPoint value.
  std::vector<FriendGap>& gaps = scratch.gaps;
  gaps.assign(friends.size(), FriendGap{});
  for (size_t i = 0; i < friends.size(); ++i) {
    gaps[i].alert_radius = friends[i].alert_radius;
    gaps[i].speed =
        std::max(friends[i].speed * config.approach_factor, 1e-6);
    gaps[i].y0 = std::numeric_limits<double>::infinity();
  }
  for (size_t k = 0; k < staged.pt_friend.size(); ++k) {
    gaps[staged.pt_friend[k]].y0 =
        point_friend_distance(k, current_q.x, current_q.y);
  }
  // Batched-kernel dispatches issued by this build (store kernels over the
  // staged batches; the rare cold-path n=1 calls inside SegmentToShape are
  // not counted). Surfaced by the policy layer as simd.dispatch.*.
  size_t dispatches = 0;
  if (!staged.ranges.empty()) {
    ++dispatches;
    simd::SegmentsSquaredDistanceToPoint(staged.view(), current_q.x,
                                         current_q.y, staged.pdtp_sq.data());
    for (const StagedConstraints::Range& r : staged.ranges) {
      gaps[r.friend_index].y0 =
          std::max(0.0, std::sqrt(range_min(staged.pdtp_sq, r)) - r.radius);
    }
  }
  for (size_t ci : staged.cold) {
    gaps[ci].y0 = ShapeDistanceToPoint(*friends[ci].region, current_q, epoch);
  }

  // m = 0: the degenerate single-anchor stripe (fresh users with no
  // prediction, or users squeezed by friends on all sides). The winning
  // stripe itself is constructed once after the scan — its anchors are a
  // prefix of `anchors` and rebuilding it per improved step was pure waste.
  StripeBuildResult best;
  best.m = 0;
  best.solution = SolveStripeRadius(gaps, 0, config.SigmaForStep(1),
                                    user_speed, radius_cap_for(1),
                                    kStripeEpsilon);
  size_t solves = 1;
  size_t exact_evaluations = best.solution.exact_evaluations;

  Vec2 prev_anchor = current_q;
  std::vector<Vec2>& anchors = scratch.anchors;
  anchors.assign(1, current_q);
  const int horizon = static_cast<int>(
      std::min<size_t>(predicted.size(), config.max_horizon));
  for (int m = 1; m <= horizon; ++m) {
    const Vec2& next_anchor = predicted[m - 1];

    // Algorithm 2's anchor prune (lines 2-6), evaluated lazily: a predicted
    // point within alert radius of a friend's region cannot be enclosed, so
    // the first violating point ends the scan — the same bound the upfront
    // per-friend sweep produces (it is the min over friends of the first
    // violating index), but points past the loop's own stopping step are
    // never evaluated.
    bool violated = false;
    for (size_t k = 0; k < staged.pt_friend.size() && !violated; ++k) {
      violated = point_friend_distance(k, next_anchor.x, next_anchor.y) <=
                 friends[staged.pt_friend[k]].alert_radius;
    }
    if (!violated && !staged.ranges.empty()) {
      ++dispatches;
      simd::SegmentsSquaredDistanceToPoint(staged.view(), next_anchor.x,
                                           next_anchor.y,
                                           staged.pdtp_sq.data());
      for (size_t ri = 0; ri < staged.ranges.size() && !violated; ++ri) {
        const StagedConstraints::Range& r = staged.ranges[ri];
        const double d =
            std::max(0.0, std::sqrt(range_min(staged.pdtp_sq, r)) - r.radius);
        violated = d <= friends[r.friend_index].alert_radius;
      }
    }
    for (size_t ci : staged.cold) {
      if (violated) break;
      violated =
          ShapeDistanceToPoint(*friends[ci].region, next_anchor, epoch) <=
          friends[ci].alert_radius;
    }
    if (violated) break;

    // Exact segment-to-shape clearances. The query segment's derived form
    // is computed once per step exactly as SegmentToShape derives it per
    // call; point-like friends run as one batch.
    const double qdx = next_anchor.x - prev_anchor.x;
    const double qdy = next_anchor.y - prev_anchor.y;
    const double qlen2 = qdx * qdx + qdy * qdy;
    if (!staged.ptx.empty()) {
      ++dispatches;
      simd::SegmentSquaredDistanceToPoints(
          prev_anchor.x, prev_anchor.y, qdx, qdy, qlen2, staged.ptx.data(),
          staged.pty.data(), staged.ptx.size(), staged.pt_sq.data());
      for (size_t k = 0; k < staged.pt_friend.size(); ++k) {
        const double exact_d =
            std::max(0.0, std::sqrt(staged.pt_sq[k]) - staged.ptr[k]);
        FriendGap& g = gaps[staged.pt_friend[k]];
        g.y0 = std::min(g.y0, exact_d);
      }
    }
    // Stripe friends: one store-kernel call over the concatenated segment
    // batch (every lane in a full-width block, unlike per-friend calls
    // whose short ranges would mostly run in the scalar tail), then one
    // ranged min per friend — bit-exact with the per-friend reduced calls.
    if (!staged.ranges.empty()) {
      ++dispatches;
      simd::SegmentToSegmentsSquaredDistances(
          prev_anchor.x, prev_anchor.y, next_anchor.x, next_anchor.y,
          staged.view(), staged.seg_sq.data());
      for (const StagedConstraints::Range& r : staged.ranges) {
        const double exact_d =
            std::max(0.0, std::sqrt(range_min(staged.seg_sq, r)) - r.radius);
        FriendGap& g = gaps[r.friend_index];
        g.y0 = std::min(g.y0, exact_d);
      }
    }
    for (size_t i : staged.cold) {
      const double exact_d =
          SegmentToShape(prev_anchor, next_anchor, *friends[i].region, epoch);
      gaps[i].y0 = std::min(gaps[i].y0, exact_d);
    }
    anchors.push_back(next_anchor);
    prev_anchor = next_anchor;

    if (RadiusUpperBound(gaps) <= 0.0) break;  // No sound radius left.
    const RadiusSolution sol =
        SolveStripeRadius(gaps, m, config.SigmaForStep(m), user_speed,
                          radius_cap_for(m), kStripeEpsilon);
    ++solves;
    exact_evaluations += sol.exact_evaluations;
    if (sol.Objective() > best.solution.Objective()) {
      best.solution = sol;
      best.m = m;
    }
    // Confidence floor: once reaching step m is too unlikely, longer
    // stripes only dilute the cost model (Algorithm 2's p_min cutoff).
    if (sol.stay_pow < kStripePMin) break;
  }
  best.stripe = Stripe(anchors.data(), static_cast<size_t>(best.m) + 1,
                       best.solution.radius);
  best.staged_point_lanes = staged.ptx.size();
  best.staged_segment_lanes = staged.sax.size();
  best.kernel_dispatches = dispatches;
  best.radius_solves = solves;
  best.exact_evaluations = exact_evaluations;
  return best;
}

}  // namespace proxdet
