#include "region/region.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace proxdet {
namespace {

double CircleToPolygon(const Circle& c, const ConvexPolygon& poly) {
  return std::max(0.0, poly.DistanceToPoint(c.center) - c.radius);
}

template <typename T>
constexpr const char* TypeName() {
  if constexpr (std::is_same_v<T, Circle>) {
    return "Circle";
  } else if constexpr (std::is_same_v<T, MovingCircle>) {
    return "MovingCircle";
  } else if constexpr (std::is_same_v<T, ConvexPolygon>) {
    return "ConvexPolygon";
  } else {
    return "Stripe";
  }
}

[[noreturn]] void UnproducedPair(const char* a, const char* b) {
  std::fprintf(stderr,
               "FATAL: ShapeMinDistance(%s, %s): no detector produces this "
               "pair; a detector's regions are Circle plus one of "
               "MovingCircle, ConvexPolygon or Stripe.\n",
               a, b);
  std::abort();
}

/// The pairs a detector can produce: Circle with anything, and each
/// family's own shape with itself. Every other pair takes the fallback.
struct DistanceVisitor {
  int epoch;

  double operator()(const Circle& a, const Circle& b) const {
    return DistanceCircleToCircle(a, b);
  }
  double operator()(const Circle& a, const MovingCircle& b) const {
    return DistanceCircleToCircle(a, b.AtEpoch(epoch));
  }
  double operator()(const Circle& a, const ConvexPolygon& b) const {
    return CircleToPolygon(a, b);
  }
  double operator()(const Circle& a, const Stripe& b) const {
    return b.DistanceToCircle(a);
  }
  double operator()(const MovingCircle& a, const Circle& b) const {
    return DistanceCircleToCircle(a.AtEpoch(epoch), b);
  }
  double operator()(const MovingCircle& a, const MovingCircle& b) const {
    return DistanceCircleToCircle(a.AtEpoch(epoch), b.AtEpoch(epoch));
  }
  double operator()(const ConvexPolygon& a, const Circle& b) const {
    return CircleToPolygon(b, a);
  }
  double operator()(const ConvexPolygon& a, const ConvexPolygon& b) const {
    return a.DistanceToPolygon(b);
  }
  double operator()(const Stripe& a, const Circle& b) const {
    return a.DistanceToCircle(b);
  }
  double operator()(const Stripe& a, const Stripe& b) const {
    return a.DistanceToStripe(b);
  }
  template <typename A, typename B>
  double operator()(const A&, const B&) const {
    UnproducedPair(TypeName<A>(), TypeName<B>());
  }
};

}  // namespace

const char* ShapeName(const SafeRegionShape& shape) {
  return std::visit(
      [](const auto& s) { return TypeName<std::decay_t<decltype(s)>>(); },
      shape);
}

bool ShapeContains(const SafeRegionShape& shape, const Vec2& p, int epoch) {
  return std::visit(
      [&p, epoch](const auto& s) -> bool {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Circle>) {
          return s.Contains(p);
        } else if constexpr (std::is_same_v<T, MovingCircle>) {
          return s.Contains(p, epoch);
        } else {
          return s.Contains(p);
        }
      },
      shape);
}

double ShapeDistanceToPoint(const SafeRegionShape& shape, const Vec2& p,
                            int epoch) {
  return std::visit(
      [&p, epoch](const auto& s) -> double {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Circle>) {
          return DistancePointToCircle(p, s);
        } else if constexpr (std::is_same_v<T, MovingCircle>) {
          return DistancePointToCircle(p, s.AtEpoch(epoch));
        } else if constexpr (std::is_same_v<T, ConvexPolygon>) {
          return s.DistanceToPoint(p);
        } else {
          return s.DistanceToPoint(p);
        }
      },
      shape);
}

double ShapeMinDistance(const SafeRegionShape& a, const SafeRegionShape& b,
                        int epoch) {
  return std::visit(DistanceVisitor{epoch}, a, b);
}

namespace {

BBox CircleBounds(const Circle& c) {
  return {{c.center.x - c.radius, c.center.y - c.radius},
          {c.center.x + c.radius, c.center.y + c.radius}};
}

bool Below(double d, double threshold, bool inclusive) {
  return inclusive ? d <= threshold : d < threshold;
}

}  // namespace

bool ShapeBoundsAt(const SafeRegionShape& shape, int epoch, BBox* out) {
  return std::visit(
      [epoch, out](const auto& s) -> bool {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, Circle>) {
          *out = CircleBounds(s);
          return true;
        } else if constexpr (std::is_same_v<T, MovingCircle>) {
          *out = CircleBounds(s.AtEpoch(epoch));
          return true;
        } else if constexpr (std::is_same_v<T, ConvexPolygon>) {
          // A vertex-free polygon reports distance 0 to everything; no box
          // can bound that convention. One or two vertices still behave as
          // exact point/segment geometry, which the vertex box contains.
          if (s.vertices().empty()) return false;
          *out = s.bounds();
          return true;
        } else {
          if (!s.has_bounds()) return false;
          *out = s.bounds();
          return true;
        }
      },
      shape);
}

bool ShapeMinDistanceBelow(const SafeRegionShape& a, const SafeRegionShape& b,
                           int epoch, double threshold, bool inclusive) {
  BBox box_a, box_b;
  if (ShapeBoundsAt(a, epoch, &box_a) && ShapeBoundsAt(b, epoch, &box_b) &&
      box_a.DistanceToBox(box_b) > threshold) {
    // exact >= box distance > threshold: the branch is decided.
    return false;
  }
  return Below(ShapeMinDistance(a, b, epoch), threshold, inclusive);
}

bool ShapeDistanceToPointBelow(const SafeRegionShape& shape, const Vec2& p,
                               int epoch, double threshold, bool inclusive) {
  BBox box;
  if (ShapeBoundsAt(shape, epoch, &box) &&
      box.DistanceToPoint(p) > threshold) {
    return false;
  }
  return Below(ShapeDistanceToPoint(shape, p, epoch), threshold, inclusive);
}

}  // namespace proxdet
