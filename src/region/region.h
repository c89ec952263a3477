#ifndef PROXDET_REGION_REGION_H_
#define PROXDET_REGION_REGION_H_

#include <variant>

#include "geom/bbox.h"
#include "geom/circle.h"
#include "geom/polygon.h"
#include "geom/stripe.h"
#include "region/moving_circle.h"

namespace proxdet {

/// The safe-region taxonomy used by the detectors: static circles
/// (initialization, Sec. V-C), mobile circles (FMD/CMD [19]), static convex
/// polygons (Buddy Tracking [3]) and predictive stripes (this paper).
using SafeRegionShape = std::variant<Circle, MovingCircle, ConvexPolygon, Stripe>;

/// The shape's type name ("Circle", "MovingCircle", "ConvexPolygon" or
/// "Stripe"), for precondition failures.
const char* ShapeName(const SafeRegionShape& shape);

/// Closed containment of p in the shape at the given epoch (only
/// MovingCircle is time-dependent).
bool ShapeContains(const SafeRegionShape& shape, const Vec2& p, int epoch);

/// Minimum distance from p to the shape at the given epoch (0 when inside).
double ShapeDistanceToPoint(const SafeRegionShape& shape, const Vec2& p,
                            int epoch);

/// Minimum distance between two shapes at the given epoch (0 on overlap).
/// Precondition: both shapes come from one detector's family. A detector
/// builds one kind of region, and a friend it reads is that kind or a
/// Circle (an initialization split), so the families are
///   Static:  Circle | ConvexPolygon
///   FMD/CMD: Circle | MovingCircle
///   Stripe:  Circle | Stripe
/// and the pairs served are Circle with any shape, MovingCircle-MovingCircle,
/// ConvexPolygon-ConvexPolygon and Stripe-Stripe, each exact. Any other
/// pair prints both shape names and aborts, in every build type.
double ShapeMinDistance(const SafeRegionShape& a, const SafeRegionShape& b,
                        int epoch);

/// Epoch-resolved axis-aligned bounds containing the whole shape. Circles
/// and moving circles resolve on the fly (trivial); polygons and stripes
/// return the box cached at construction. Returns false for degenerate
/// shapes (no vertices / empty path) whose exact distances follow special
/// conventions — callers must then skip box-based pruning.
bool ShapeBoundsAt(const SafeRegionShape& shape, int epoch, BBox* out);

/// True iff ShapeMinDistance(a, b, epoch) < threshold (<= when inclusive),
/// with AABB lower-bound pruning: when the box-to-box distance already
/// clears the threshold the exact geometry (O(segments^2) for stripe-stripe
/// and polygon-polygon pairs) is never touched. Sound because the box
/// distance never exceeds the exact distance, so the comparison outcome —
/// the only thing detector decisions consume — is identical to the
/// unpruned form. A cross-family pair aborts only when the boxes leave it
/// undecided.
bool ShapeMinDistanceBelow(const SafeRegionShape& a, const SafeRegionShape& b,
                           int epoch, double threshold,
                           bool inclusive = false);

/// True iff ShapeDistanceToPoint(shape, p, epoch) < threshold (<= when
/// inclusive), with the same AABB pruning contract.
bool ShapeDistanceToPointBelow(const SafeRegionShape& shape, const Vec2& p,
                               int epoch, double threshold,
                               bool inclusive = false);

}  // namespace proxdet

#endif  // PROXDET_REGION_REGION_H_
