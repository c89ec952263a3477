#include "core/world.h"

#include <memory>

#include <gtest/gtest.h>

#include "traj/streaming.h"

namespace proxdet {
namespace {

Trajectory LineFrom(double x0, double step, size_t n) {
  std::vector<Vec2> pts;
  for (size_t i = 0; i < n; ++i) pts.push_back({x0 + step * i, 0.0});
  return Trajectory(std::move(pts), 5.0);
}

/// Two users; user u's epoch-e position is (e, u).
class CountingStream : public StreamingGenerator {
 public:
  size_t user_count() const override { return 2; }
  double epoch_seconds() const override { return 1.0; }
  void Reset() override { epoch_ = 0; }
  void NextEpoch(Vec2* out) override {
    for (size_t u = 0; u < 2; ++u) {
      out[u] = {static_cast<double>(epoch_), static_cast<double>(u)};
    }
    ++epoch_;
  }
  std::unique_ptr<StreamingGenerator> Clone() const override {
    return std::make_unique<CountingStream>();
  }

 private:
  int epoch_ = 0;
};

World CountingWorld() {
  return World(std::make_unique<CountingStream>(), InterestGraph(2), 40);
}

World TwoUserWorld(double gap, double closing_per_tick, int speed_steps,
                   int epochs, double r) {
  // User 0 fixed at origin; user 1 approaches from +x.
  std::vector<Trajectory> trajs;
  const size_t ticks = static_cast<size_t>(epochs) * speed_steps + 1;
  trajs.push_back(LineFrom(0.0, 0.0, ticks));
  trajs.push_back(LineFrom(gap, -closing_per_tick, ticks));
  InterestGraph g(2);
  g.AddEdge(0, 1, r);
  return World(std::move(trajs), std::move(g), speed_steps, epochs);
}

TEST(WorldTest, PositionUsesSpeedSteps) {
  const World w = TwoUserWorld(1000.0, 1.0, 4, 10, 100.0);
  EXPECT_EQ(w.Position(1, 0), (Vec2{1000, 0}));
  EXPECT_EQ(w.Position(1, 1), (Vec2{996, 0}));  // 4 ticks of 1 m.
  EXPECT_DOUBLE_EQ(w.epoch_seconds(), 20.0);    // 4 ticks x 5 s.
}

TEST(WorldTest, PositionClampsBeyondTrajectory) {
  const World w = TwoUserWorld(1000.0, 1.0, 4, 10, 100.0);
  EXPECT_EQ(w.Position(0, 999), (Vec2{0, 0}));
}

TEST(WorldTest, RecentWindowEpochSpaced) {
  const World w = TwoUserWorld(1000.0, 1.0, 4, 10, 100.0);
  const std::vector<Vec2> win = w.RecentWindow(1, 3, 3);
  ASSERT_EQ(win.size(), 3u);
  EXPECT_EQ(win[0], (Vec2{996, 0}));
  EXPECT_EQ(win[2], (Vec2{988, 0}));
}

TEST(WorldTest, RecentWindowTruncatedAtStart) {
  const World w = TwoUserWorld(1000.0, 1.0, 4, 10, 100.0);
  EXPECT_EQ(w.RecentWindow(0, 1, 5).size(), 2u);
  EXPECT_EQ(w.RecentWindow(0, 0, 5).size(), 1u);
}

TEST(WorldTest, GroundTruthSingleCrossing) {
  // Gap 1000, closing 2 m/tick, V=4 -> 8 m/epoch; r=900: crossing when
  // distance < 900, i.e., after 12.5 epochs -> epoch 13.
  const World w = TwoUserWorld(1000.0, 2.0, 4, 30, 900.0);
  const std::vector<AlertEvent> alerts = w.GroundTruthAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].u, 0);
  EXPECT_EQ(alerts[0].w, 1);
  EXPECT_EQ(alerts[0].epoch, 13);
}

TEST(WorldTest, GroundTruthNoAlertWhenNeverClose) {
  const World w = TwoUserWorld(1000.0, 0.0, 4, 30, 900.0);
  EXPECT_TRUE(w.GroundTruthAlerts().empty());
}

TEST(WorldTest, GroundTruthRealertAfterSeparation) {
  // Approach, pass through, separate beyond r, approach again? Use a
  // trajectory that oscillates: build manually.
  std::vector<Vec2> a;
  std::vector<Vec2> b;
  const int epochs = 9;
  for (int t = 0; t <= epochs; ++t) {
    a.push_back({0, 0});
    // Distance pattern per epoch: 10, 2, 2, 10, 10, 2, 10, ...
    const double d = (t % 4 == 1 || t % 4 == 2) ? 2.0 : 10.0;
    b.push_back({d, 0});
  }
  InterestGraph g(2);
  g.AddEdge(0, 1, 5.0);
  const World w(
      {Trajectory(std::move(a), 5.0), Trajectory(std::move(b), 5.0)},
      std::move(g), 1, epochs);
  const std::vector<AlertEvent> alerts = w.GroundTruthAlerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].epoch, 1);
  EXPECT_EQ(alerts[1].epoch, 5);
}

TEST(WorldTest, DynamicInsertionAlertsImmediately) {
  World w = TwoUserWorld(100.0, 0.0, 1, 10, 900.0);
  // No edge initially... the base world has an edge; build a fresh one.
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0.0, 0.0, 11));
  trajs.push_back(LineFrom(100.0, 0.0, 11));
  World w2(std::move(trajs), InterestGraph(2), 1, 10);
  w2.ScheduleUpdate({.epoch = 4, .insert = true, .u = 0, .w = 1,
                     .alert_radius = 900.0});
  const std::vector<AlertEvent> alerts = w2.GroundTruthAlerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].epoch, 4);  // Already within radius at insertion.
}

TEST(WorldTest, DynamicDeletionStopsTracking) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0.0, 0.0, 21));
  trajs.push_back(LineFrom(1000.0, -10.0, 21));  // Crosses r=900 at epoch 11.
  InterestGraph g(2);
  g.AddEdge(0, 1, 900.0);
  World w(std::move(trajs), std::move(g), 1, 20);
  w.ScheduleUpdate({.epoch = 5, .insert = false, .u = 0, .w = 1,
                    .alert_radius = 0.0});
  EXPECT_TRUE(w.GroundTruthAlerts().empty());
}

// ScheduleUpdate used to re-sort the whole schedule on every call
// (O(n^2 log n) across a burst); it now just marks the list dirty and
// scheduled_updates() stable-sorts lazily on first read. Out-of-order
// scheduling must still yield an epoch-sorted schedule, ties must keep
// scheduling order, and scheduling after a read must re-sort.
TEST(WorldTest, OutOfOrderSchedulingSortsLazilyAndStably) {
  std::vector<Trajectory> trajs;
  trajs.push_back(LineFrom(0.0, 0.0, 21));
  trajs.push_back(LineFrom(100.0, 0.0, 21));
  trajs.push_back(LineFrom(200.0, 0.0, 21));
  World w(std::move(trajs), InterestGraph(3), 1, 20);
  w.ScheduleUpdate({.epoch = 7, .insert = true, .u = 0, .w = 1,
                    .alert_radius = 500.0});
  w.ScheduleUpdate({.epoch = 2, .insert = true, .u = 1, .w = 2,
                    .alert_radius = 500.0});
  w.ScheduleUpdate({.epoch = 7, .insert = false, .u = 0, .w = 1,
                    .alert_radius = 0.0});

  const std::vector<GraphUpdate>& sorted = w.scheduled_updates();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].epoch, 2);
  EXPECT_EQ(sorted[1].epoch, 7);
  EXPECT_EQ(sorted[2].epoch, 7);
  EXPECT_TRUE(sorted[1].insert);   // Stable: insert scheduled first...
  EXPECT_FALSE(sorted[2].insert);  // ...delete keeps its later position.

  // Scheduling after a read marks the list dirty again.
  w.ScheduleUpdate({.epoch = 1, .insert = true, .u = 0, .w = 2,
                    .alert_radius = 500.0});
  const std::vector<GraphUpdate>& resorted = w.scheduled_updates();
  ASSERT_EQ(resorted.size(), 4u);
  EXPECT_EQ(resorted[0].epoch, 1);
  EXPECT_EQ(resorted[3].epoch, 7);

  // GroundTruthAlerts consumes the sorted view: the epoch-7 insert is
  // cancelled by its same-epoch delete, so only edges (0,2) and (1,2)
  // (within radius at insertion) alert.
  const std::vector<AlertEvent> alerts = w.GroundTruthAlerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0], (AlertEvent{1, 0, 2}));
  EXPECT_EQ(alerts[1], (AlertEvent{2, 1, 2}));
}

// The allocation-free RecentWindow overload must agree with the returning
// one and fully overwrite whatever the reused buffer held.
TEST(WorldTest, RecentWindowIntoBufferMatchesReturningOverload) {
  const World w = TwoUserWorld(1000.0, 1.0, 4, 10, 100.0);
  std::vector<Vec2> buf(7, Vec2{-1.0, -1.0});  // Stale content to clobber.
  for (const int epoch : {0, 1, 3, 9}) {
    w.RecentWindow(1, epoch, 3, &buf);
    EXPECT_EQ(buf, w.RecentWindow(1, epoch, 3)) << "epoch " << epoch;
  }
}

TEST(WorldTest, StreamingPositionServesTheRingWindow) {
  const World world = CountingWorld();
  world.BeginEpoch(20);  // Readable: [21 - kStreamWindow, 21).
  EXPECT_EQ(world.Position(1, 20), Vec2(20.0, 1.0));
  EXPECT_EQ(world.Position(0, 21 - World::kStreamWindow),
            Vec2(21.0 - World::kStreamWindow, 0.0));
}

// Reading outside the window is a caller bug that would otherwise return
// another epoch's ring row; it aborts in every build, NDEBUG included.
TEST(WorldDeathTest, StreamingPositionAbortsOnNegativeEpoch) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const World world = CountingWorld();
  world.BeginEpoch(4);
  EXPECT_DEATH(world.Position(0, -1), "epoch -1 outside .*\\[0, 5\\)");
}

TEST(WorldDeathTest, StreamingPositionAbortsPastTheBeginEpochCursor) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const World world = CountingWorld();
  world.BeginEpoch(4);
  EXPECT_DEATH(world.Position(0, 5), "epoch 5 outside .*\\[0, 5\\)");
  world.BeginEpoch(20);
  EXPECT_DEATH(world.Position(0, 20 - World::kStreamWindow),
               "outside .*\\[9, 21\\)");
}

TEST(WorldTest, SortAlertsCanonicalOrder) {
  std::vector<AlertEvent> alerts{{5, 2, 3}, {1, 7, 9}, {5, 0, 1}};
  SortAlerts(&alerts);
  EXPECT_EQ(alerts[0].epoch, 1);
  EXPECT_EQ(alerts[1], (AlertEvent{5, 0, 1}));
  EXPECT_EQ(alerts[2], (AlertEvent{5, 2, 3}));
}

}  // namespace
}  // namespace proxdet
