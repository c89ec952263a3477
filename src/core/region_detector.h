#ifndef PROXDET_CORE_REGION_DETECTOR_H_
#define PROXDET_CORE_REGION_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "region/region.h"

namespace proxdet {

/// A friend as presented to a region policy during construction: the
/// *effective* constraint region (the friend's installed safe region, or a
/// virtual circle around its exact location when it is rebuilding in the
/// same epoch), the pair's alert radius and the server's speed estimate.
///
/// The installed-region case BORROWS the engine's shape (`borrowed`)
/// instead of copying it: copying a Stripe allocates its anchor buffer,
/// and deep-copying ~F of them per rebuild was a top profile entry. The
/// borrowed pointer is valid for the duration of the build that reads it:
/// BuildRegion runs inside the serial commit, and a concurrent build of a
/// speculative window member borrows only regions of users outside that
/// window, which the window's commits never reinstall (DESIGN.md §15); so
/// nothing reinstalls a friend's region between view collection and the
/// build. The virtual-split case owns its small
/// circle in `owned_region`. Views are safely movable/copyable —
/// `region()` resolves through the pointer only at read time.
struct FriendView {
  UserId id = -1;
  const SafeRegionShape* borrowed = nullptr;
  SafeRegionShape owned_region;
  double alert_radius = 0.0;
  double speed = 0.0;  // m/epoch

  const SafeRegionShape& region() const {
    return borrowed != nullptr ? *borrowed : owned_region;
  }
};

/// A policy's metric sample of one build, carried from a concurrent build
/// to the serial commit (RegionPolicy::RecordBuild). Each policy derives
/// its own sample type; the engine only holds it.
class BuildSample {
 public:
  BuildSample() = default;
  BuildSample(const BuildSample&) = default;
  BuildSample(BuildSample&&) = default;
  BuildSample& operator=(const BuildSample&) = default;
  BuildSample& operator=(BuildSample&&) = default;
  virtual ~BuildSample() = default;
};

/// What RegionPolicy::BuildConcurrent hands back: the region and the
/// metric sample the policy records if the engine commits it.
struct ConcurrentBuild {
  SafeRegionShape shape;
  std::unique_ptr<BuildSample> sample;
};

/// Strategy interface: how safe regions are constructed. The engine
/// (RegionDetector) owns the protocol — exits, probes, match regions,
/// alerts — and is shared by Static [3], FMD/CMD [19] and the predictive
/// stripe; policies only differ in the region they build.
///
/// Soundness contract: the returned region must (a) contain `location` and
/// (b) keep distance >= alert_radius from every FriendView region at
/// `epoch`. The engine commits rebuilds one at a time, in queue order, and
/// each commit hands the policy the views as they stand at that point, so
/// a policy honoring (b) preserves the pairwise invariant d(u, w) >= r_{u,w}
/// for pairs fully inside their regions.
///
/// Threading: every hook but BuildConcurrent is called on the thread that
/// called Detector::Run, from the engine's serial sections. Only
/// BuildConcurrent, which a policy opts into, may run on pool threads,
/// and it may overlap those serial calls (BuildRegion and RecordBuild
/// included).
class RegionPolicy {
 public:
  virtual ~RegionPolicy() = default;

  virtual std::string name() const = 0;

  /// True when regions move over time (FMD/CMD), requiring the server to
  /// re-check region-pair distances every epoch; static shapes only need
  /// checks at construction.
  virtual bool NeedsPerEpochPairCheck() const { return false; }

  virtual SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                                      const std::vector<Vec2>& recent_window,
                                      double speed,
                                      const std::vector<FriendView>& friends,
                                      int epoch) = 0;

  /// Optional thread-safe twin of BuildRegion. The engine may call it from
  /// pool threads, concurrently, ahead of the commit, and may discard the
  /// result. It must be a pure function of its arguments and of state that
  /// nothing mutates during a Run, it must record no metrics, and `out` must
  /// receive exactly the region BuildRegion would return for the same
  /// arguments. If the engine commits the build it calls RecordBuild with
  /// `out->sample`, where BuildRegion would have recorded its own sample.
  /// Returns false when the policy does not support it (the default); the
  /// engine then stops asking for the rest of the run.
  virtual bool BuildConcurrent(UserId u, const Vec2& location,
                               const std::vector<Vec2>& recent_window,
                               double speed,
                               const std::vector<FriendView>& friends,
                               int epoch, ConcurrentBuild* out) const;

  /// Records the metric sample of a committed BuildConcurrent result.
  /// Serial; called in queue order.
  virtual void RecordBuild(const BuildSample& sample);

  /// Self-tuning hooks (CMD): the user left its region / was probed.
  virtual void OnExit(UserId u);
  virtual void OnProbe(UserId u);
};

/// The generic safe-region + match-region protocol of Algorithm 1, with
/// message accounting. See DESIGN.md §5 for the message taxonomy.
///
/// Server-side scans are exhaustive and batched: the match-region check
/// visits every matched pair, the exit check every user, and — for moving
/// regions (FMD/CMD) — the per-epoch pair check every interest edge, in
/// an incrementally maintained edge snapshot. The interest graph is sparse,
/// so the O(edges) scan is the paper's own per-pair cost and needs no
/// spatial index (DESIGN.md §10).
class RegionDetector : public Detector {
 public:
  struct Options {
    /// When true, every rebuilt region is checked against the soundness
    /// contract (it contains the user and clears every friend constraint),
    /// and the incremental edge snapshot against a from-scratch
    /// graph.Edges() after each graph-update batch. Violations are counted
    /// into validation_failures(); tests expect 0. Builds squeezed by a
    /// friend region already within the alert radius of the user have no
    /// sound region to return and are not checked. Costs an extra distance
    /// pass per build.
    bool validate_builds = false;
    /// Ablation switch: disable Def. 3 match regions. Matched pairs then
    /// report every epoch until they separate (the naive fallback the match
    /// region was designed to avoid).
    bool use_match_regions = true;
  };

  explicit RegionDetector(std::unique_ptr<RegionPolicy> policy);
  RegionDetector(std::unique_ptr<RegionPolicy> policy, Options options);
  ~RegionDetector() override;

  std::string name() const override;
  void Run(const World& world) override;

  /// Number of safe-region constructions performed (diagnostics).
  uint64_t rebuild_count() const { return rebuild_count_; }

  /// Work counters of the last Run's per-epoch pair check: `candidates`
  /// is the number of region-pair predicates the edge scan evaluated (0
  /// for static-region policies, which never run it).
  const SpatialIndexStats& index_stats() const { return index_stats_; }

  /// Soundness-check violations seen by the last Run (always 0 unless
  /// Options::validate_builds is set).
  uint64_t validation_failures() const { return validation_failures_; }

 private:
  struct Impl;
  std::unique_ptr<RegionPolicy> policy_;
  Options options_;
  uint64_t rebuild_count_ = 0;
  uint64_t validation_failures_ = 0;
  SpatialIndexStats index_stats_;
};

}  // namespace proxdet

#endif  // PROXDET_CORE_REGION_DETECTOR_H_
