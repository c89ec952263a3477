#include "core/stripe_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <variant>

#include "geom/anchor_grid.h"
#include "geom/simd/simd.h"

namespace proxdet {

namespace {

/// Friend constraints staged once per build for the per-m scans: one SoA
/// batch of point-like shapes (circles and single-anchor stripes) and one
/// concatenated segment SoA across all polyline stripes. Each horizon step
/// then issues ~3 kernel calls over the whole friend set instead of one or
/// two tiny calls per friend; the per-friend values are recovered by ranged
/// reductions that are bit-exact with the per-friend calls (see the
/// concatenated-SoA contract in geom/simd/simd.h).
struct StagedConstraints {
  // Point-like friends: the center whose segment distance is taken, and the
  // radius subtracted from it. pt_gap[k] is the friend's gaps[] index.
  std::vector<double> ptx, pty, ptr;
  std::vector<size_t> pt_gap;
  // Stripes with >= 2 anchors: segments concatenated in friend order. The
  // degenerate single-anchor encoding is NOT bit-safe for the seg-seg
  // kernel, so single-anchor stripes go in the point batch instead —
  // exactly the branch Stripe::DistanceToStripe takes.
  std::vector<double> sax, say, sbx, sby, sdx, sdy, slen2;
  struct Range {
    size_t gap;
    size_t begin, end;  // lane range in the concatenated arrays
    double radius;
  };
  std::vector<Range> ranges;
  // Kernel outputs, sized to the batches.
  std::vector<double> pt_sq, seg_sq, pdtp_sq;

  simd::SegmentSoA view() const {
    return simd::SegmentSoA{sax.data(), say.data(), sbx.data(),  sby.data(),
                            sdx.data(), sdy.data(), slen2.data(), sax.size()};
  }
};

/// Stages friends[kept[g]] as gap g, for every g.
void StageConstraints(const std::vector<StripeFriendConstraint>& friends,
                      const std::vector<size_t>& kept,
                      StagedConstraints& out) {
  out.ptx.clear();
  out.pty.clear();
  out.ptr.clear();
  out.pt_gap.clear();
  out.sax.clear();
  out.say.clear();
  out.sbx.clear();
  out.sby.clear();
  out.sdx.clear();
  out.sdy.clear();
  out.slen2.clear();
  out.ranges.clear();
  for (size_t g = 0; g < kept.size(); ++g) {
    const SafeRegionShape& shape = *friends[kept[g]].region;
    if (const Circle* c = std::get_if<Circle>(&shape)) {
      out.ptx.push_back(c->center.x);
      out.pty.push_back(c->center.y);
      out.ptr.push_back(c->radius);
      out.pt_gap.push_back(g);
      continue;
    }
    // SurveyFriend admitted only Circle and Stripe.
    const Stripe& stripe = std::get<Stripe>(shape);
    if (stripe.anchor_count() == 1) {
      out.ptx.push_back(stripe.anchor_xs()[0]);
      out.pty.push_back(stripe.anchor_ys()[0]);
      out.ptr.push_back(stripe.radius());
      out.pt_gap.push_back(g);
      continue;
    }
    const simd::SegmentSoA segs = stripe.segments_soa();
    const size_t begin = out.sax.size();
    out.sax.insert(out.sax.end(), segs.ax, segs.ax + segs.n);
    out.say.insert(out.say.end(), segs.ay, segs.ay + segs.n);
    out.sbx.insert(out.sbx.end(), segs.bx, segs.bx + segs.n);
    out.sby.insert(out.sby.end(), segs.by, segs.by + segs.n);
    out.sdx.insert(out.sdx.end(), segs.dx, segs.dx + segs.n);
    out.sdy.insert(out.sdy.end(), segs.dy, segs.dy + segs.n);
    out.slen2.insert(out.slen2.end(), segs.len2, segs.len2 + segs.n);
    out.ranges.push_back({g, begin, begin + segs.n, stripe.radius()});
  }
  out.pt_sq.resize(out.ptx.size());
  out.seg_sq.resize(out.sax.size());
  out.pdtp_sq.resize(out.sax.size());
}

/// DistancePointToCircle's expression: the clearance of (px, py) from a
/// point-like friend (== the degenerate single-anchor stripe distance, bit
/// for bit).
double PointClearance(double px, double py, double cx, double cy,
                      double radius) {
  const double dx = px - cx;
  const double dy = py - cy;
  const double v = std::sqrt(dx * dx + dy * dy) - radius;
  return 0.0 < v ? v : 0.0;
}

/// One friend before staging: its m = 0 gap, whose y0 is its exact
/// clearance from the current location (bit for bit what the staged
/// kernels compute there), the box ShapeBoundsAt gives its region, and the
/// lanes staging it offers.
struct FriendSurvey {
  FriendGap gap;
  BBox box;
  bool bounded = false;  // box valid, and the friend may be screened
  size_t point_lanes = 0;
  size_t segment_lanes = 0;
};

[[noreturn]] void OutsideStripeFamily(const SafeRegionShape& shape) {
  std::fprintf(stderr,
               "FATAL: BuildPredictiveStripe: a friend region is a %s; a "
               "Stripe build's friends are Circle or Stripe regions.\n",
               ShapeName(shape));
  std::abort();
}

/// Surveys one friend; aborts unless its region is a Circle or a Stripe
/// (every friend is surveyed before anything else reads it).
FriendSurvey SurveyFriend(const StripeFriendConstraint& f, const Vec2& p,
                          double approach_factor, int epoch) {
  const SafeRegionShape& shape = *f.region;
  FriendSurvey out;
  out.gap.alert_radius = f.alert_radius;
  out.gap.speed = std::max(f.speed * approach_factor, 1e-6);
  out.bounded = ShapeBoundsAt(shape, epoch, &out.box);
  if (const Circle* c = std::get_if<Circle>(&shape)) {
    out.gap.y0 =
        PointClearance(p.x, p.y, c->center.x, c->center.y, c->radius);
    out.point_lanes = 1;
    return out;
  }
  const Stripe* stripe = std::get_if<Stripe>(&shape);
  if (stripe == nullptr) OutsideStripeFamily(shape);
  if (stripe->anchor_count() == 1) {
    out.gap.y0 = PointClearance(p.x, p.y, stripe->anchor_xs()[0],
                                stripe->anchor_ys()[0], stripe->radius());
    out.point_lanes = 1;
    return out;
  }
  // The reduced kernel equals the ranged min over the store kernel's lanes
  // bit for bit (geom/simd/simd.h).
  const simd::SegmentSoA segs = stripe->segments_soa();
  out.gap.y0 = std::max(
      0.0, std::sqrt(simd::PolylineSquaredDistanceToPoint(segs, p.x, p.y)) -
               stripe->radius());
  out.segment_lanes = segs.n;
  return out;
}

/// A margin far above the rounding of the few operations each screening
/// bound combines (2^13 units in the last place of the largest magnitude
/// involved).
constexpr double kScreenSlack = 0x1p-40;

/// Lower bound on every clearance the build can compute for a friend whose
/// region lies in `box`, from any point or segment within `path`: the box
/// distance, less the rounding of both the bound and the exact kernels
/// (a few ulps of the largest coordinate). -infinity when nothing is
/// proven (a non-finite or inverted box).
double ClearanceLowerBound(const BBox& path, const BBox& box) {
  constexpr double kNothing = -std::numeric_limits<double>::infinity();
  if (!(box.lo.x <= box.hi.x && box.lo.y <= box.hi.y)) return kNothing;
  double scale = 0.0;
  for (const double c : {path.lo.x, path.lo.y, path.hi.x, path.hi.y,
                         box.lo.x, box.lo.y, box.hi.x, box.hi.y}) {
    if (!std::isfinite(c)) return kNothing;
    scale = std::max(scale, std::fabs(c));
  }
  const double d = path.DistanceToBox(box);
  return d - 8.0 * kScreenSlack * (scale + d);
}

/// ExpectedProbeTime's term (y0 - s - r) / v for w (with y0 = lb_w)
/// against u's: true when w's exceeds u's at s by more than either side's
/// rounding.
bool ProbeTermAbove(const FriendGap& w, double lb_w, const FriendGap& u,
                    double s) {
  const double vw = std::max(w.speed, 1e-9);
  const double vu = std::max(u.speed, 1e-9);
  const double a = (lb_w - s - w.alert_radius) / vw;
  const double b = (u.y0 - s - u.alert_radius) / vu;
  const double error =
      kScreenSlack * ((std::fabs(lb_w) + s + std::fabs(w.alert_radius)) / vw +
                      (std::fabs(u.y0) + s + std::fabs(u.alert_radius)) / vu);
  return a - b > error;
}

/// Influential-friend screening (DESIGN.md §2.2). Algorithm 2 reads the
/// friends only through minima: the anchor prune (the first friend within
/// r_w), the radius bound min_w (y0_w - r_w) and E_p = min_w (y0_w - s -
/// r_w) / v_w at radii s in [0, U], U = max(0, y0_p - r_p) for the m = 0
/// argmin p of the radius bound. y0 only falls as m grows, and every
/// clearance of w over the horizon is at least lb_w, its box distance from
/// `path`. A friend whose bounded E_p term loses, strictly and beyond
/// rounding, to a pivot's exact m = 0 term at both ends of [0, U] (the
/// terms are linear in s) is never one of those minima. When no friend is
/// inside its radius now, U = y0_p - r_p and the test at s = U already
/// gives lb_w - r_w > U >= 0, so w neither stops the anchor prune nor sets
/// the radius bound; otherwise the build stops at m = 1 whatever w does.
/// Dropping the friend changes no bit of the result. The pivots — the
/// m = 0 argmins of the radius bound and of E_p at s = 0 — are always
/// kept.
/// Fills `kept` with the surviving friends' indices, in order.
void ScreenFriends(const std::vector<FriendSurvey>& surveys, const BBox& path,
                   std::vector<size_t>& kept) {
  kept.clear();
  const size_t n = surveys.size();
  size_t pivot_r = n;
  size_t pivot_e = n;
  double best_r = std::numeric_limits<double>::infinity();
  double best_e = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const FriendGap& g = surveys[i].gap;
    const double slack = g.y0 - g.alert_radius;
    const double term = slack / g.speed;
    if (!std::isfinite(slack) || !std::isfinite(term)) continue;
    if (slack < best_r) {
      best_r = slack;
      pivot_r = i;
    }
    if (term < best_e) {
      best_e = term;
      pivot_e = i;
    }
  }
  const double top = std::max(0.0, best_r);  // U
  const auto probe_term_loses = [&](const FriendGap& w, double lb,
                                    size_t u) {
    return ProbeTermAbove(w, lb, surveys[u].gap, 0.0) &&
           ProbeTermAbove(w, lb, surveys[u].gap, top);
  };
  for (size_t i = 0; i < n; ++i) {
    const FriendGap& w = surveys[i].gap;
    if (pivot_r < n && surveys[i].bounded && i != pivot_r && i != pivot_e &&
        std::isfinite(w.alert_radius) && std::isfinite(w.speed)) {
      const double lb = ClearanceLowerBound(path, surveys[i].box);
      if (probe_term_loses(w, lb, pivot_r) ||
          probe_term_loses(w, lb, pivot_e)) {
        continue;
      }
    }
    kept.push_back(i);
  }
}

/// Per-build working memory, reused across the ~tens of thousands of
/// rebuilds a run performs (the builder runs on pool threads; one scratch
/// per thread).
struct BuildScratch {
  StagedConstraints staged;
  std::vector<Vec2> predicted;
  std::vector<FriendSurvey> surveys;
  std::vector<size_t> kept;
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

  const int horizon = static_cast<int>(
      std::min<size_t>(predicted.size(), config.max_horizon));

  // Survey every friend: its exact m = 0 gap, its region's box and the
  // lanes it offers. The lane counts feed simd.batch.stripe_* before
  // screening, so they do not depend on it.
  std::vector<FriendSurvey>& surveys = scratch.surveys;
  surveys.resize(friends.size());
  size_t offered_point_lanes = 0;
  size_t offered_segment_lanes = 0;
  for (size_t i = 0; i < friends.size(); ++i) {
    surveys[i] =
        SurveyFriend(friends[i], current_q, config.approach_factor, epoch);
    offered_point_lanes += surveys[i].point_lanes;
    offered_segment_lanes += surveys[i].segment_lanes;
  }
  BBox path{current_q, current_q};
  for (int m = 0; m < horizon; ++m) path.Extend(predicted[m]);
  std::vector<size_t>& kept = scratch.kept;
  ScreenFriends(surveys, path, kept);

  StagedConstraints& staged = scratch.staged;
  StageConstraints(friends, kept, staged);

  // One point against every staged point-like friend.
  const auto point_friend_distance = [&staged](size_t k, double px,
                                               double py) {
    return PointClearance(px, py, staged.ptx[k], staged.pty[k],
                          staged.ptr[k]);
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
  // prefix minima y0_f(m) accumulate as m grows one segment at a time,
  // from the surveyed m = 0 clearances.
  std::vector<FriendGap>& gaps = scratch.gaps;
  gaps.clear();
  for (const size_t i : kept) gaps.push_back(surveys[i].gap);
  // Batched-kernel dispatches issued by this build: the survey's reduced
  // calls and the store kernels over the staged batches. Surfaced by the
  // policy layer as simd.dispatch.*.
  size_t dispatches = 0;
  for (const FriendSurvey& survey : surveys) {
    dispatches += survey.segment_lanes > 0 ? 1 : 0;
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
  for (int m = 1; m <= horizon; ++m) {
    const Vec2& next_anchor = predicted[m - 1];

    // Algorithm 2's anchor prune (lines 2-6), evaluated lazily: a predicted
    // point within alert radius of a friend's region cannot be enclosed, so
    // the first violating point ends the scan — the same bound the upfront
    // per-friend sweep produces (it is the min over friends of the first
    // violating index), but points past the loop's own stopping step are
    // never evaluated.
    bool violated = false;
    for (size_t k = 0; k < staged.pt_gap.size() && !violated; ++k) {
      violated = point_friend_distance(k, next_anchor.x, next_anchor.y) <=
                 gaps[staged.pt_gap[k]].alert_radius;
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
        violated = d <= gaps[r.gap].alert_radius;
      }
    }
    if (violated) break;

    // Exact segment-to-shape clearances. The query segment's derived form
    // (d = b - a, |d|^2) is computed once per step; point-like friends run
    // as one batch.
    const double qdx = next_anchor.x - prev_anchor.x;
    const double qdy = next_anchor.y - prev_anchor.y;
    const double qlen2 = qdx * qdx + qdy * qdy;
    if (!staged.ptx.empty()) {
      ++dispatches;
      simd::SegmentSquaredDistanceToPoints(
          prev_anchor.x, prev_anchor.y, qdx, qdy, qlen2, staged.ptx.data(),
          staged.pty.data(), staged.ptx.size(), staged.pt_sq.data());
      for (size_t k = 0; k < staged.pt_gap.size(); ++k) {
        const double exact_d =
            std::max(0.0, std::sqrt(staged.pt_sq[k]) - staged.ptr[k]);
        FriendGap& g = gaps[staged.pt_gap[k]];
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
        FriendGap& g = gaps[r.gap];
        g.y0 = std::min(g.y0, exact_d);
      }
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
  best.staged_point_lanes = offered_point_lanes;
  best.staged_segment_lanes = offered_segment_lanes;
  best.kernel_dispatches = dispatches;
  best.screened_friends = friends.size() - kept.size();
  best.radius_solves = solves;
  best.exact_evaluations = exact_evaluations;
  return best;
}

}  // namespace proxdet
