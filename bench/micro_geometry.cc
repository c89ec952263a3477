// Micro-benchmarks for the geometric primitives on the hot path of the
// detection engine: containment tests run on every client every epoch,
// region-pair distances on every rebuild.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "geom/polygon.h"
#include "geom/stripe.h"
#include "region/region.h"

namespace proxdet {
namespace {

Stripe RandomStripe(Rng* rng, int anchors) {
  std::vector<Vec2> pts;
  Vec2 p{rng->Uniform(-1000, 1000), rng->Uniform(-1000, 1000)};
  for (int i = 0; i < anchors; ++i) {
    pts.push_back(p);
    p += Vec2{rng->Uniform(-200, 200), rng->Uniform(-200, 200)};
  }
  return Stripe(Polyline(std::move(pts)), rng->Uniform(20, 200));
}

void BM_SegmentSegmentDistance(benchmark::State& state) {
  Rng rng(1);
  const Segment a{{0, 0}, {100, 50}};
  const Segment b{{rng.Uniform(0, 500), rng.Uniform(0, 500)},
                  {rng.Uniform(0, 500), rng.Uniform(0, 500)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceSegmentToSegment(a, b));
  }
}
BENCHMARK(BM_SegmentSegmentDistance);

void BM_StripeContains(benchmark::State& state) {
  Rng rng(2);
  const Stripe stripe = RandomStripe(&rng, static_cast<int>(state.range(0)));
  const Vec2 p{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stripe.Contains(p));
  }
}
BENCHMARK(BM_StripeContains)->Arg(2)->Arg(8)->Arg(21);

// The common negative case in a live run: the queried position is nowhere
// near the stripe. The AABB early-reject answers these without touching a
// single segment, so time should be flat in the anchor count (compare with
// BM_StripeContains, which scales linearly).
void BM_StripeContainsFarPoint(benchmark::State& state) {
  Rng rng(2);
  const Stripe stripe = RandomStripe(&rng, static_cast<int>(state.range(0)));
  const Vec2 p{1e6, 1e6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stripe.Contains(p));
  }
}
BENCHMARK(BM_StripeContainsFarPoint)->Arg(2)->Arg(8)->Arg(21);

void BM_StripeStripeDistance(benchmark::State& state) {
  Rng rng(3);
  const Stripe a = RandomStripe(&rng, static_cast<int>(state.range(0)));
  const Stripe b = RandomStripe(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DistanceToStripe(b));
  }
}
BENCHMARK(BM_StripeStripeDistance)->Arg(4)->Arg(11)->Arg(21);

void BM_PolygonClip(benchmark::State& state) {
  Rng rng(4);
  const ConvexPolygon square = ConvexPolygon::Square({0, 0}, 1000.0);
  const HalfPlane hp{{rng.Uniform(-500, 500), rng.Uniform(-500, 500)},
                     Vec2{rng.Uniform(-1, 1), rng.Uniform(-1, 1)}.Normalized()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(square.ClippedBy(hp));
  }
}
BENCHMARK(BM_PolygonClip);

void BM_PolygonPolygonDistance(benchmark::State& state) {
  const ConvexPolygon a = ConvexPolygon::Square({0, 0}, 100.0);
  const ConvexPolygon b = ConvexPolygon::Square({500, 300}, 150.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.DistanceToPolygon(b));
  }
}
BENCHMARK(BM_PolygonPolygonDistance);

void BM_ShapeMinDistanceVariant(benchmark::State& state) {
  Rng rng(5);
  const SafeRegionShape a = RandomStripe(&rng, 11);
  const SafeRegionShape b = Circle{{500, 500}, 80.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShapeMinDistance(a, b, 3));
  }
}
BENCHMARK(BM_ShapeMinDistanceVariant);

}  // namespace
}  // namespace proxdet
