// Direct tests of the RegionDetector engine mechanics on hand-built
// two/three-user worlds where every message can be predicted by hand.

#include "core/region_detector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "core/policies.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "predict/linear_predictor.h"

namespace proxdet {
namespace {

Trajectory LineFrom(double x0, double y0, double step_x, size_t n) {
  std::vector<Vec2> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({x0 + step_x * i, y0});
  }
  return Trajectory(std::move(pts), 5.0);
}

std::unique_ptr<RegionDetector> MakeStripeDetector(
    RegionDetector::Options options = {}) {
  StripePolicy::Options sopts;
  sopts.build.sigma = 50.0;
  return std::make_unique<RegionDetector>(
      std::make_unique<StripePolicy>(std::make_unique<LinearPredictor>(),
                                     sopts),
      options);
}

TEST(RegionDetectorTest, TwoDistantStationaryUsersTalkOnce) {
  // Both users stand still, 100 km apart, r = 1 km: after initialization
  // nobody ever needs to communicate again.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 0, 41));
  trajs.push_back(LineFrom(100000, 0, 0, 41));
  InterestGraph g(2);
  g.AddEdge(0, 1, 1000.0);
  const World world(std::move(trajs), std::move(g), 1, 40);
  auto detector = MakeStripeDetector();
  detector->Run(world);
  EXPECT_TRUE(detector->SortedAlerts().empty());
  // Initialization: 2 reports + 2 region installs; then silence.
  EXPECT_EQ(detector->stats().reports, 2u);
  EXPECT_EQ(detector->stats().region_installs, 2u);
  EXPECT_EQ(detector->stats().probes, 0u);
  EXPECT_EQ(detector->rebuild_count(), 2u);
}

TEST(RegionDetectorTest, StraightMoverStaysInsideItsStripe) {
  // One user moves at a perfectly constant velocity; the linear predictor
  // nails the path, so rebuilds happen only when the stripe runs out.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 10, 201));       // 10 m per tick east.
  trajs.push_back(LineFrom(0, 90000, 0, 201));    // Far away, static.
  InterestGraph g(2);
  g.AddEdge(0, 1, 1000.0);
  const World world(std::move(trajs), std::move(g), 1, 200);
  auto detector = MakeStripeDetector();
  detector->Run(world);
  EXPECT_TRUE(detector->SortedAlerts().empty());
  // The mover's region must last many epochs: far fewer rebuilds than
  // epochs. (Horizon 20 stripes -> about one rebuild per 20 epochs.)
  EXPECT_LT(detector->rebuild_count(), 30u);
}

TEST(RegionDetectorTest, HeadOnPairAlertsExactly) {
  // Two users approach head-on at 10 m/tick each; r = 500 m. Initial gap
  // 3000 m closes at 20 m/epoch (V=1): distance < 500 first at epoch 126.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 10, 161));
  trajs.push_back(LineFrom(3000, 0, -10, 161));
  InterestGraph g(2);
  g.AddEdge(0, 1, 500.0);
  World world(std::move(trajs), std::move(g), 1, 160);
  const auto truth = world.GroundTruthAlerts();
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].epoch, 126);
  auto detector = MakeStripeDetector();
  detector->Run(world);
  EXPECT_EQ(detector->SortedAlerts(), truth);
  EXPECT_GT(detector->stats().probes + detector->stats().reports, 2u);
}

TEST(RegionDetectorTest, MatchedPairMovingTogetherIsFree) {
  // Two users glued together (constant 100 m gap) moving in lockstep:
  // after the initial alert, the pair re-centers its match region only
  // when it crosses the circle of radius r/2 = 2000 m, i.e. every ~200
  // ticks of 10 m — once over this run.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 10, 201));
  trajs.push_back(LineFrom(100, 0, 10, 201));
  InterestGraph g(2);
  g.AddEdge(0, 1, 4000.0);
  const World world(std::move(trajs), std::move(g), 1, 200);
  auto detector = MakeStripeDetector();
  detector->Run(world);
  ASSERT_EQ(detector->SortedAlerts().size(), 1u);
  EXPECT_EQ(detector->SortedAlerts()[0].epoch, 0);
  // One alert (2 msgs), initial match install (2), roughly one re-center
  // (2 reports + 2 installs) — plus the periodic safe-region refreshes the
  // pair still maintains per Algorithm 1 (a stripe per ~20 epochs each).
  // Naive would spend 2 * 200 reports; demand near-silence.
  EXPECT_LT(detector->stats().TotalMessages(), 40u);
  EXPECT_EQ(detector->stats().match_installs, 4u);  // Create + 1 re-center.
}

TEST(RegionDetectorTest, WithoutMatchRegionsLockstepPairPaysEveryEpoch) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 10, 201));
  trajs.push_back(LineFrom(100, 0, 10, 201));
  InterestGraph g(2);
  g.AddEdge(0, 1, 4000.0);
  const World world(std::move(trajs), std::move(g), 1, 200);
  RegionDetector::Options options;
  options.use_match_regions = false;
  auto detector = MakeStripeDetector(options);
  detector->Run(world);
  ASSERT_EQ(detector->SortedAlerts().size(), 1u);
  // Both users report at every epoch while matched.
  EXPECT_GE(detector->stats().reports, 2u * 199u);
}

TEST(RegionDetectorTest, ProbeFreesSpaceHoggedByStaleRegion) {
  // User 1 sits still with a (large) region; user 0 wanders near the
  // radius boundary. Rebuilds of user 0 must stay sound, and user 1 gets
  // probed once its stale region leaves user 0 no slack.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 10, 201));
  trajs.push_back(LineFrom(2500, 0, 0, 201));
  InterestGraph g(2);
  // r = 400: user 0 tops out at x=2000 (d=500), so the pair never matches,
  // but it does run out of slack against user 1's region on the way.
  g.AddEdge(0, 1, 400.0);
  const World world(std::move(trajs), std::move(g), 1, 200);
  auto detector = MakeStripeDetector();
  detector->Run(world);
  EXPECT_EQ(detector->SortedAlerts(), world.GroundTruthAlerts());
  EXPECT_GT(detector->stats().probes, 0u);
}

/// Deliberately unsound: a huge circle that ignores every friend.
class FriendBlindPolicy : public RegionPolicy {
 public:
  std::string name() const override { return "FriendBlind"; }
  SafeRegionShape BuildRegion(UserId, const Vec2& location,
                              const std::vector<Vec2>&, double,
                              const std::vector<FriendView>&, int) override {
    return Circle{location, 1e6};
  }
};

TEST(RegionDetectorTest, ValidateBuildsCountsUnsoundRegions) {
  // The check must run in release builds too: a policy that breaks the
  // friend-clearance contract is counted, and only when asked for.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0, 0, 0, 11));
  trajs.push_back(LineFrom(5000, 0, 0, 11));
  InterestGraph g(2);
  g.AddEdge(0, 1, 1000.0);
  const World world(std::move(trajs), std::move(g), 1, 10);
  RegionDetector::Options options;
  options.validate_builds = true;
  RegionDetector checked(std::make_unique<FriendBlindPolicy>(), options);
  checked.Run(world);
  EXPECT_GT(checked.validation_failures(), 0u);
  RegionDetector unchecked(std::make_unique<FriendBlindPolicy>());
  unchecked.Run(world);
  EXPECT_EQ(unchecked.validation_failures(), 0u);
}

TEST(RegionDetectorTest, NameComesFromPolicy) {
  auto detector = MakeStripeDetector();
  EXPECT_EQ(detector->name(), "Stripe+Linear");
  RegionDetector cmd(std::make_unique<MobileCirclePolicy>([] {
    MobileCirclePolicy::Options o;
    o.self_tuning = true;
    return o;
  }()));
  EXPECT_EQ(cmd.name(), "CMD");
}

/// Records the thread of every call that reaches a forwarding wrapper.
struct ThreadLog {
  std::mutex mutex;
  std::vector<std::thread::id> ids;
  void Note() {
    std::lock_guard<std::mutex> lock(mutex);
    ids.push_back(std::this_thread::get_id());
  }
};

/// A forwarding Predictor that overrides only the base interface, the way
/// an out-of-library timing wrapper does.
class LoggingPredictor final : public Predictor {
 public:
  LoggingPredictor(std::unique_ptr<Predictor> inner, ThreadLog* log)
      : inner_(std::move(inner)), log_(log) {}
  std::vector<Vec2> Predict(const std::vector<Vec2>& recent,
                            size_t steps) override {
    log_->Note();
    return inner_->Predict(recent, steps);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Predictor> inner_;
  ThreadLog* log_;
};

/// A forwarding RegionPolicy that overrides only the hooks that predate
/// concurrent construction; it inherits BuildConcurrent's "not supported".
class LoggingPolicy final : public RegionPolicy {
 public:
  LoggingPolicy(std::unique_ptr<RegionPolicy> inner, ThreadLog* log)
      : inner_(std::move(inner)), log_(log) {}
  std::string name() const override {
    log_->Note();
    return inner_->name();
  }
  bool NeedsPerEpochPairCheck() const override {
    log_->Note();
    return inner_->NeedsPerEpochPairCheck();
  }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override {
    log_->Note();
    return inner_->BuildRegion(u, location, recent_window, speed, friends,
                               epoch);
  }
  void OnExit(UserId u) override {
    log_->Note();
    inner_->OnExit(u);
  }
  void OnProbe(UserId u) override {
    log_->Note();
    inner_->OnProbe(u);
  }

 private:
  std::unique_ptr<RegionPolicy> inner_;
  ThreadLog* log_;
};

/// A forwarding StripePolicy that counts the regions the commit builds
/// inline (BuildRegion). With more than one pool thread that happens only
/// on a speculation miss, so fewer inline builds than rebuilds shows that
/// regions came from BuildConcurrent, however the helpers were scheduled.
/// With `busy_units` > 0 each concurrent build first does busy-work keyed
/// on the user id: some builds then take far longer than a commit, so
/// commits overtake in-flight builds, misses land while a helper is still
/// building, and the commit waits for (and helps with) claimed builds. The
/// regions themselves are the inner policy's, so output must not change.
class ForwardingStripePolicy final : public RegionPolicy {
 public:
  ForwardingStripePolicy(std::unique_ptr<StripePolicy> inner,
                         uint64_t busy_units)
      : inner_(std::move(inner)), busy_units_(busy_units) {}
  std::string name() const override { return inner_->name(); }
  SafeRegionShape BuildRegion(UserId u, const Vec2& location,
                              const std::vector<Vec2>& recent_window,
                              double speed,
                              const std::vector<FriendView>& friends,
                              int epoch) override {
    ++inline_builds_;
    return inner_->BuildRegion(u, location, recent_window, speed, friends,
                               epoch);
  }
  bool BuildConcurrent(UserId u, const Vec2& location,
                       const std::vector<Vec2>& recent_window, double speed,
                       const std::vector<FriendView>& friends, int epoch,
                       ConcurrentBuild* out) const override {
    // 0, 1 or 2 units of 40k LCG steps: a third of the builds are fast.
    uint64_t x = static_cast<uint64_t>(u) + 1;
    const uint64_t steps = static_cast<uint64_t>(u % 3) * busy_units_ * 40000;
    for (uint64_t i = 0; i < steps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink_.fetch_xor(x, std::memory_order_relaxed);
    return inner_->BuildConcurrent(u, location, recent_window, speed,
                                   friends, epoch, out);
  }
  void RecordBuild(const BuildSample& sample) override {
    inner_->RecordBuild(sample);
  }
  uint64_t inline_builds() const { return inline_builds_; }

 private:
  std::unique_ptr<StripePolicy> inner_;
  uint64_t busy_units_;
  uint64_t inline_builds_ = 0;  // Run() thread only.
  mutable std::atomic<uint64_t> sink_{0};
};

// The seam contract timing wrappers rely on: a policy that does not opt
// into concurrent construction is only ever called — and its predictor
// only ever asked — on the thread that called Run(), even on a 4-thread
// pool, and the run matches the unwrapped speculative one.
TEST(RegionDetectorTest, WrappedPolicySeesOnlyTheRunThread) {
  struct PoolGuard {
    ~PoolGuard() {
      ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
    }
  } guard;
  ThreadPool::SetGlobalThreads(4);
  WorkloadConfig config;
  config.num_users = 60;
  config.epochs = 20;
  config.training_users = 12;
  config.training_epochs = 60;
  const Workload workload = BuildWorkload(config);

  // Training and sigma calibration fan out on the pool by design; wrap the
  // predictor after them.
  std::unique_ptr<Predictor> predictor =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  const StripePolicy::Options options =
      CalibratedStripeOptions(predictor.get(), workload);
  ThreadLog log;
  RegionDetector wrapped(std::make_unique<LoggingPolicy>(
      std::make_unique<StripePolicy>(
          std::make_unique<LoggingPredictor>(std::move(predictor), &log),
          options),
      &log));
  obs::Metrics().Reset();
  wrapped.Run(workload.world);
  const uint64_t speculated = obs::Metrics()
                                  .Snapshot()
                                  .counters.at("engine.resolve.speculated")
                                  .second;

  ASSERT_GT(wrapped.rebuild_count(), 0u);
  ASSERT_GT(log.ids.size(), wrapped.rebuild_count());
  for (const std::thread::id id : log.ids) {
    ASSERT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(speculated, 0u);

  auto counting = std::make_unique<ForwardingStripePolicy>(
      std::make_unique<StripePolicy>(
          MakeTrainedPredictor(PredictorKind::kKalman, workload), options),
      0);
  const ForwardingStripePolicy& counter = *counting;
  RegionDetector plain(std::move(counting));
  obs::Metrics().Reset();
  plain.Run(workload.world);
  EXPECT_LT(counter.inline_builds(), plain.rebuild_count())
      << "the opted-in policy built nothing concurrently";
  EXPECT_EQ(wrapped.SortedAlerts(), plain.SortedAlerts());
  EXPECT_TRUE(wrapped.stats() == plain.stats());
  EXPECT_EQ(wrapped.rebuild_count(), plain.rebuild_count());
}

// The resident helpers build while the commit runs. Under slow, uneven
// builds every run must still be the 1-thread run, and once Run() returns
// every pool worker must be free again: a ParallelFor whose iterations
// each wait for all of the pool's threads completes only then.
TEST(RegionDetectorTest, SlowHelperBuildsStayExactAndReturnToThePool) {
  struct PoolGuard {
    ~PoolGuard() {
      ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreadCount());
    }
  } guard;
  WorkloadConfig config;
  config.num_users = 200;
  config.epochs = 30;
  config.avg_friends = 10.0;
  config.training_users = 12;
  config.training_epochs = 60;
  const Workload workload = BuildWorkload(config);
  std::unique_ptr<Predictor> trained =
      MakeTrainedPredictor(PredictorKind::kKalman, workload);
  const StripePolicy::Options options =
      CalibratedStripeOptions(trained.get(), workload);

  struct Outcome {
    std::vector<AlertEvent> alerts;
    CommStats stats;
    uint64_t rebuilds = 0;
    std::string digest;
    uint64_t helper_builds = 0;
  };
  const auto run = [&](unsigned threads) {
    ThreadPool::SetGlobalThreads(threads);
    RegionDetector detector(std::make_unique<ForwardingStripePolicy>(
        std::make_unique<StripePolicy>(
            MakeTrainedPredictor(PredictorKind::kKalman, workload), options),
        1));
    obs::Metrics().Reset();
    detector.Run(workload.world);
    const obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
    const auto counter = [&](const std::string& name) -> uint64_t {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second.second;
    };

    const unsigned n = ThreadPool::Global().thread_count();
    std::atomic<unsigned> arrived{0};
    std::atomic<unsigned> met{0};
    ParallelFor(n, [&](size_t) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (arrived.load() < n &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (arrived.load() == n) met.fetch_add(1);
    });
    EXPECT_EQ(met.load(), n) << "a pool thread is still busy after Run() at "
                             << threads << " threads";

    Outcome out;
    out.alerts = detector.SortedAlerts();
    out.stats = detector.stats();
    out.rebuilds = detector.rebuild_count();
    out.digest = snapshot.DeterministicDigest();
    out.helper_builds = counter("engine.resolve.helper_builds");
    return out;
  };

  const Outcome serial = run(1);
  ASSERT_GT(serial.rebuilds, 0u);
  EXPECT_EQ(serial.alerts, workload.GroundTruth());
  EXPECT_EQ(serial.helper_builds, 0u);
  uint64_t helper_builds = 0;
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const Outcome parallel = run(threads);
    EXPECT_EQ(parallel.alerts, serial.alerts) << threads << " threads";
    EXPECT_TRUE(parallel.stats == serial.stats)
        << threads << " threads: " << parallel.stats << " vs "
        << serial.stats;
    EXPECT_EQ(parallel.rebuilds, serial.rebuilds) << threads << " threads";
    EXPECT_EQ(parallel.digest, serial.digest) << threads << " threads";
    helper_builds += parallel.helper_builds;
  }
  EXPECT_GT(helper_builds, 0u);
}

}  // namespace
}  // namespace proxdet
