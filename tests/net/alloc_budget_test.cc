// Heap-allocation budget of the transported plane's hot path: one
// steady-state uplink report round trip (client encode -> SimNet send ->
// deliver -> server decode -> ack -> retry timer retired -> report handed
// to the engine) over a perfect link with one shard. The map-based
// reliability layer this replaced cost about 30 operator-new calls per
// round trip here (pending and seen-window nodes, the frame and payload
// vectors, the retry std::function, the event copy, the cancelled-timer
// set). The pooled frame path allocates only when a recycled buffer first
// meets a frame longer than any it held before — a handful of times per
// run, not per round trip.

#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/mem_probe.h"
#include "core/simulation.h"
#include "net/transport.h"

PROXDET_INSTALL_ALLOC_PROBE()

namespace proxdet {
namespace net {
namespace {

TEST(NetAllocBudgetTest, SteadyStateReportRoundTripStaysUnderBudget) {
  WorkloadConfig wc;
  wc.dataset = DatasetKind::kTruck;
  wc.num_users = 24;
  wc.epochs = 40;
  wc.speed_steps = 8;
  wc.avg_friends = 4.0;
  wc.seed = 99;
  wc.training_users = 4;
  wc.training_epochs = 20;
  const Workload workload = BuildWorkload(wc);
  TransportLink link(workload.world, NetConfig());
  const UserId users = static_cast<UserId>(workload.world.user_count());
  constexpr size_t kWindow = 8;
  Vec2 position;
  std::vector<Vec2> window;
  auto report_epochs = [&](int from, int to) {
    for (int epoch = from; epoch < to; ++epoch) {
      for (UserId u = 0; u < users; ++u) {
        link.Report(u, epoch, kWindow, &position, &window);
      }
    }
  };
  report_epochs(1, 10);  // Warm-up: pools, scratch buffers, peer tables.
  const uint64_t before = AllocProbe::AllocCount();
  report_epochs(10, 40);
  const uint64_t allocations = AllocProbe::AllocCount() - before;
  const uint64_t round_trips = static_cast<uint64_t>(users) * 30;
  const double per_round_trip =
      static_cast<double>(allocations) / static_cast<double>(round_trips);
  std::printf("%.4f allocations per report round trip (%llu over %llu)\n",
              per_round_trip, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(round_trips));
  EXPECT_LE(per_round_trip, 0.05);
  // The exchange really ran: one report frame and one ack per round trip.
  const NetRunStats stats = link.Stats();
  EXPECT_EQ(stats.frames_up, static_cast<uint64_t>(users) * 39);
  EXPECT_EQ(stats.frames_down, static_cast<uint64_t>(users) * 39);
  EXPECT_FALSE(stats.failed);
}

}  // namespace
}  // namespace net
}  // namespace proxdet
