// A Stripe stores its anchors once, in one heap buffer: building one from
// an anchor range and copying one each cost exactly one operator-new call.
// Every copy of an installed region (the engine's slot, the wire's
// expectation tracker, the client's installed region, decoded copies) pays
// that price, so a second block per stripe shows up here first.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/mem_probe.h"
#include "common/rng.h"
#include "geom/stripe.h"

PROXDET_INSTALL_ALLOC_PROBE()

namespace proxdet {
namespace {

std::vector<Vec2> RandomAnchors(Rng* rng, size_t n) {
  std::vector<Vec2> pts;
  Vec2 p{rng->Uniform(-500, 500), rng->Uniform(-500, 500)};
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(p);
    p += Vec2{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  }
  return pts;
}

TEST(StripeAllocTest, BuildAndCopyAllocateOneBlock) {
  Rng rng(7);
  for (const size_t n : {1, 3, 24}) {
    SCOPED_TRACE(n);
    const std::vector<Vec2> pts = RandomAnchors(&rng, n);

    uint64_t before = AllocProbe::AllocCount();
    const Stripe built(pts.data(), pts.size(), 5.0);
    const uint64_t build_allocs = AllocProbe::AllocCount() - before;

    before = AllocProbe::AllocCount();
    const Stripe copy(built);
    const uint64_t copy_allocs = AllocProbe::AllocCount() - before;

    EXPECT_EQ(build_allocs, 1u);
    EXPECT_EQ(copy_allocs, 1u);
    // Both objects are read afterwards, so neither allocation is elidable.
    EXPECT_TRUE(copy == built);
    EXPECT_EQ(copy.anchor_count(), n);
  }
}

}  // namespace
}  // namespace proxdet
