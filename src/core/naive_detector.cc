#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/timer.h"
#include "core/client_link.h"
#include "core/detector.h"
#include "exec/thread_pool.h"
#include "geom/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proxdet {

namespace {

/// Same names as the region engine's handles: both engines account into the
/// engine.* counters, so one reconciliation path serves every method.
struct NaiveMetrics {
  obs::Counter& reports;
  obs::Counter& alerts;
  obs::Counter& epochs;

  static const NaiveMetrics& Get() {
    static const NaiveMetrics m{
        obs::Metrics().GetCounter("engine.reports"),
        obs::Metrics().GetCounter("engine.alerts"),
        obs::Metrics().GetCounter("engine.epochs"),
    };
    return m;
  }
};

/// Batched pair-scan observability: one histogram sample per chunk dispatch
/// (the SoA lane count handed to the kernel) plus a lane counter — pure
/// functions of the workload, so both stay in the deterministic digest.
/// The dispatch counter (simd.dispatch.<backend>) is wall-clock-kinded:
/// its name carries the kernel implementation, which digests leave out.
struct SimdScanMetrics {
  obs::HistogramMetric& pair_scan_batch;
  obs::Counter& pair_scan_lanes;
  obs::Counter& dispatches;

  static const SimdScanMetrics& Get() {
    static const SimdScanMetrics m{
        obs::Metrics().GetHistogram(
            "simd.batch.pair_scan",
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
             1024.0},
            obs::Kind::kDeterministic),
        obs::Metrics().GetCounter("simd.lanes.pair_scan",
                                  obs::Kind::kDeterministic),
        obs::Metrics().GetCounter(
            std::string("simd.dispatch.") +
                simd::BackendName(simd::ActiveBackend()),
            obs::Kind::kWallClock),
    };
    return m;
  }
};

// Edges per scan chunk: coarse enough that chunk bookkeeping is negligible
// next to the distance math, fine enough to balance the pool at 10k users.
constexpr size_t kEdgeGrain = 1024;

}  // namespace

// The per-epoch pair check is split into a parallel read-only scan and a
// serial in-order commit, preserving the serial engine's outputs bit-exactly
// for any thread count:
//  - scan: pair decisions run on the pool; each chunk appends the edge
//    slots whose inside/outside state *changed* to its own delta list
//    (positions, edge list and matched flags are read-only).
//  - commit: transition slots are walked in ascending slot order — global
//    edge order — flipping per-edge matched state and emitting alerts
//    exactly where the historical serial loop would have.
// Matched state is slot-indexed against a cached edge snapshot (rebuilt
// only when graph updates apply); per-edge decisions depend only on that
// edge's own persistent state, so the transition set is order-independent
// and the commit order fixes the alert order.
void NaiveDetector::Run(const World& world) {
  stats_ = CommStats();
  phase_times_ = PhaseTimes();
  alerts_.clear();
  InterestGraph graph = world.graph();  // Mutable copy for dynamic updates.
  std::unordered_set<uint64_t> matched_pairs;  // Source of truth across rebuilds.
  std::vector<InterestGraph::Edge> edges;
  std::vector<uint8_t> matched;  // Slot-aligned mirror of matched_pairs.
  std::vector<Vec2> pos(world.user_count());
  bool edges_dirty = true;
  size_t next_update = 0;
  const auto& updates = world.scheduled_updates();

  // Reused scratch, kept allocation-free across epochs (clear, don't free).
  // Cache-line aligned per chunk: the vector headers are written from
  // pool threads while neighbouring chunks run on other cores — packed
  // tightly they would false-share a line.
  struct alignas(64) ChunkScratch {
    std::vector<uint32_t> out;   // Transition slots found by this chunk.
    // SoA staging for the batched distance predicate, settled by one simd
    // kernel call per chunk (bit-exact with the scalar compare).
    std::vector<double> ax, ay;   // First endpoint.
    std::vector<double> bx, by;   // Second endpoint.
    std::vector<double> rad;      // Alert radius per lane.
    std::vector<uint8_t> within;  // Kernel verdicts.
  };
  std::vector<ChunkScratch> chunks_scratch;
  std::vector<uint32_t> transitions;  // Merged slots, ascending.
  std::vector<Vec2> window_scratch;  // Transported reports (window_len 0).

  for (int epoch = 0; epoch < world.epochs(); ++epoch) {
    // Streaming worlds generate this epoch's positions here — the one
    // serial point before the parallel position fan-out below.
    world.BeginEpoch(epoch);
    while (next_update < updates.size() &&
           updates[next_update].epoch <= epoch) {
      const GraphUpdate& up = updates[next_update];
      if (up.insert) {
        graph.AddEdge(up.u, up.w, up.alert_radius);
      } else {
        graph.RemoveEdge(up.u, up.w);
        matched_pairs.erase(PairKey(up.u, up.w));
      }
      ++next_update;
      edges_dirty = true;
    }
    if (edges_dirty) {
      edges = graph.Edges();
      matched.assign(edges.size(), 0);
      for (size_t i = 0; i < edges.size(); ++i) {
        matched[i] = matched_pairs.count(PairKey(edges[i].u, edges[i].w)) > 0;
      }
      edges_dirty = false;
    }
    // Every client uploads its position.
    stats_.reports += world.user_count();
    NaiveMetrics::Get().reports.Inc(world.user_count());
    NaiveMetrics::Get().epochs.Inc();
    ScopedTimer server_timer(stats_.server_seconds);
    obs::TraceScope span("pair_check", "engine");
    ParallelForChunked(pos.size(), kEdgeGrain, [&](size_t lo, size_t hi) {
      for (size_t u = lo; u < hi; ++u) {
        pos[u] = world.Position(static_cast<UserId>(u), epoch);
      }
    });
    if (link_ != nullptr) {
      // Transported run: every upload crosses the wire (window-less reports;
      // Naive never predicts). The server-decoded positions replace the
      // direct-read mirror above — bit-identical by the codec's exact
      // round-trip, so the distance scan below is unchanged.
      for (UserId u = 0; u < static_cast<UserId>(pos.size()); ++u) {
        link_->Report(u, epoch, 0, &pos[u], &window_scratch);
      }
    }
    WallTimer phase_timer;  // pair_check: scan + commit, not the uploads.
    transitions.clear();
    // Every edge's distance comparison, chunk delta lists concatenated in
    // chunk order (== ascending slot order).
    const size_t chunks =
        edges.empty() ? 0 : (edges.size() + kEdgeGrain - 1) / kEdgeGrain;
    if (chunks_scratch.size() < chunks) chunks_scratch.resize(chunks);
    ParallelForChunked(edges.size(), kEdgeGrain, [&](size_t lo, size_t hi) {
      ChunkScratch& scratch = chunks_scratch[lo / kEdgeGrain];
      std::vector<uint32_t>& out = scratch.out;
      out.clear();
      // Gather both endpoints into SoA lanes, settle the whole chunk with
      // one batched Distance < r kernel call (bit-exact per lane), then
      // diff against the matched state in slot order.
      const size_t m = hi - lo;
      scratch.ax.resize(m);
      scratch.ay.resize(m);
      scratch.bx.resize(m);
      scratch.by.resize(m);
      scratch.rad.resize(m);
      scratch.within.resize(m);
      for (size_t i = lo; i < hi; ++i) {
        const auto& e = edges[i];
        scratch.ax[i - lo] = pos[e.u].x;
        scratch.ay[i - lo] = pos[e.u].y;
        scratch.bx[i - lo] = pos[e.w].x;
        scratch.by[i - lo] = pos[e.w].y;
        scratch.rad[i - lo] = e.alert_radius;
      }
      SimdScanMetrics::Get().pair_scan_batch.Record(static_cast<double>(m));
      SimdScanMetrics::Get().dispatches.Inc();
      SimdScanMetrics::Get().pair_scan_lanes.Inc(m);
      simd::PairsWithinRadii(scratch.ax.data(), scratch.ay.data(),
                             scratch.bx.data(), scratch.by.data(),
                             scratch.rad.data(), m, scratch.within.data());
      for (size_t i = lo; i < hi; ++i) {
        const bool inside = scratch.within[i - lo] != 0;
        if (inside != (matched[i] != 0)) {
          out.push_back(static_cast<uint32_t>(i));
        }
      }
    });
    for (size_t c = 0; c < chunks; ++c) {
      transitions.insert(transitions.end(), chunks_scratch[c].out.begin(),
                         chunks_scratch[c].out.end());
    }
    for (const uint32_t i : transitions) {
      const auto& e = edges[i];
      const uint64_t key = PairKey(e.u, e.w);
      if (matched[i]) {
        matched[i] = 0;
        matched_pairs.erase(key);
      } else {
        matched[i] = 1;
        matched_pairs.insert(key);
        const UserId a = std::min(e.u, e.w);
        const UserId b = std::max(e.u, e.w);
        alerts_.push_back({epoch, a, b});
        stats_.alerts += 2;  // One notification per endpoint.
        NaiveMetrics::Get().alerts.Inc(2);
        if (link_ != nullptr) {
          link_->Alert(e.u, a, b, epoch);
          link_->Alert(e.w, a, b, epoch);
        }
      }
    }
    phase_times_.pair_check += phase_timer.ElapsedSeconds();
    // Epoch barrier for batched transported links (no-op in-process).
    if (link_ != nullptr) link_->EndEpoch(epoch);
  }
}

}  // namespace proxdet
