#ifndef PROXDET_CORE_POLICIES_H_
#define PROXDET_CORE_POLICIES_H_

#include <memory>
#include <unordered_map>

#include "core/region_detector.h"
#include "core/stripe_builder.h"
#include "predict/predictor.h"

namespace proxdet {

/// Buddy Tracking [3]: a static convex polygon per user. Toward each
/// rebuilding friend the slack corridor is split by a perpendicular
/// boundary (the "warning area" of Fig. 1(a)); toward installed regions a
/// half-plane is placed inside the measured slack and then verified (and
/// shrunk if needed) against the exact polygon distance. Its friends'
/// regions are circles and polygons (region.h's Static family).
class StaticPolygonPolicy : public RegionPolicy {
 public:
  std::string name() const override { return "Static"; }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override;
};

/// FMD / CMD [19]: a circle moving with the user's velocity at build time.
/// FMD uses a fixed system-wide base radius ([19] assigns every user the
/// same mobile-region size); CMD (self_tuning) scales it by a per-user
/// multiplier — exits mean the region was too small, probes mean it was
/// too large. Requires the per-epoch pair check (regions drift).
class MobileCirclePolicy : public RegionPolicy {
 public:
  struct Options {
    bool self_tuning = false;  // false = FMD, true = CMD.
  };

  MobileCirclePolicy() : MobileCirclePolicy(Options()) {}
  explicit MobileCirclePolicy(Options options) : options_(options) {}

  std::string name() const override {
    return options_.self_tuning ? "CMD" : "FMD";
  }
  bool NeedsPerEpochPairCheck() const override { return true; }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override;
  void OnExit(UserId u) override;
  void OnProbe(UserId u) override;

 private:
  Options options_;
  std::unordered_map<UserId, double> multiplier_;
};

/// This paper's method: a fixed-radius stripe around the predictor's future
/// path, sized by the holistic cost model (Algorithm 2).
///
/// Construction is written once, in BuildConcurrent: a pure function of
/// its arguments and the trained predictor (whose Predict contract makes
/// concurrent calls safe and deterministic). BuildRegion is that build plus
/// RecordBuild, so the serial and the speculative resolve record the same
/// stripe.* samples, each at its commit.
class StripePolicy : public RegionPolicy {
 public:
  struct Options {
    StripeBuildConfig build;
  };

  explicit StripePolicy(std::unique_ptr<Predictor> predictor);
  StripePolicy(std::unique_ptr<Predictor> predictor, Options options);

  std::string name() const override { return "Stripe+" + predictor_->name(); }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override;
  bool BuildConcurrent(UserId u, const Vec2& location,
                       const std::vector<Vec2>& recent_window, double speed,
                       const std::vector<FriendView>& friends, int epoch,
                       ConcurrentBuild* out) const override;
  void RecordBuild(const BuildSample& sample) override;

  Predictor* predictor() { return predictor_.get(); }

 private:
  std::unique_ptr<Predictor> predictor_;
  Options options_;
};

}  // namespace proxdet

#endif  // PROXDET_CORE_POLICIES_H_
