#include "core/region_detector.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <variant>

#include "common/timer.h"
#include "core/client_link.h"
#include "core/cost_model.h"
#include "exec/thread_pool.h"
#include "geom/simd/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "region/match_region.h"

namespace proxdet {

namespace {

/// Handles into the global registry, resolved once. Every counter mirrors a
/// CommStats field (incremented at the same serial-commit sites, so the
/// RunReport reconciliation holds to the unit) or a deterministic engine
/// total; all are pure functions of the workload seed.
struct EngineMetrics {
  obs::Counter& reports;
  obs::Counter& probes;
  obs::Counter& alerts;
  obs::Counter& region_installs;
  obs::Counter& match_installs;
  obs::Counter& rebuilds;
  obs::Counter& epochs;
  obs::Counter& exits;
  obs::Counter& pair_check_probed_edges;

  static const EngineMetrics& Get() {
    static const EngineMetrics m{
        obs::Metrics().GetCounter("engine.reports"),
        obs::Metrics().GetCounter("engine.probes"),
        obs::Metrics().GetCounter("engine.alerts"),
        obs::Metrics().GetCounter("engine.region_installs"),
        obs::Metrics().GetCounter("engine.match_installs"),
        obs::Metrics().GetCounter("engine.rebuilds"),
        obs::Metrics().GetCounter("engine.epochs"),
        obs::Metrics().GetCounter("engine.safe_region_exits"),
        obs::Metrics().GetCounter("engine.pair_check_probed_edges"),
    };
    return m;
  }
};

/// Batched-geometry observability for the engine's chunked scans: one
/// histogram sample per store-kernel dispatch (the SoA lane count handed to
/// the kernel) plus a dispatch counter keyed by the runtime-selected
/// backend. Batch sizes are chunk-shaped — the grains below are fixed, so
/// the histograms are pure functions of the workload and stay in the
/// deterministic digest. The scalar-vs-w4-vs-w8 split depends on CPUID and
/// PROXDET_SIMD_FORCE, so the dispatch counter is wall-clock-kinded.
/// Recording happens at most a few times per chunk, never per lane.
struct SimdScanMetrics {
  obs::HistogramMetric& exit_batch;
  obs::HistogramMetric& match_batch;
  obs::HistogramMetric& pair_check_batch;
  obs::Counter& dispatches;

  static const SimdScanMetrics& Get() {
    static const std::vector<double> kLaneBuckets{
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
        1024.0};
    static const SimdScanMetrics m{
        obs::Metrics().GetHistogram("simd.batch.exit_scan", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram("simd.batch.match_scan", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetHistogram("simd.batch.pair_check", kLaneBuckets,
                                    obs::Kind::kDeterministic),
        obs::Metrics().GetCounter(
            std::string("simd.dispatch.") +
                simd::BackendName(simd::ActiveBackend()),
            obs::Kind::kWallClock),
    };
    return m;
  }
};

/// The speculative resolve's counters. How many builds run ahead, who
/// makes them and how long the commit waits depend on the pool size and
/// on scheduling (a 1-thread pool never speculates), so all four are
/// wall-clock-kinded and stay out of the deterministic digest.
///  - speculated: window builds that were complete when their commit came;
///  - speculation_hits: those of them the commit took (the views matched);
///  - helper_builds: builds the resident helpers made, taken or wasted;
///  - commit_wait_ns: time the commit sat idle on a build a helper had
///    claimed but not finished, with no unclaimed build left to make.
struct SpeculationMetrics {
  obs::Counter& speculated;
  obs::Counter& hits;
  obs::Counter& helper_builds;
  obs::Counter& commit_wait_ns;

  static const SpeculationMetrics& Get() {
    static const SpeculationMetrics m{
        obs::Metrics().GetCounter("engine.resolve.speculated",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("engine.resolve.speculation_hits",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("engine.resolve.helper_builds",
                                  obs::Kind::kWallClock),
        obs::Metrics().GetCounter("engine.resolve.commit_wait_ns",
                                  obs::Kind::kWallClock),
    };
    return m;
  }
};

constexpr double kMinSpeed = 1e-3;  // m/epoch floor for estimates.

// Probe threshold: when a reporting user's distance to a friend's region
// leaves less than this much slack beyond the alert radius, the friend is
// probed (its exact position is required for safety).
constexpr double kMinGap = 1.0;  // meters

// Recent-window length attached to reports: the predictor input, whose
// length the paper fixes at 10.
constexpr size_t kWindow = 10;

// Queued users per pool thread in one speculative resolve window
// (DESIGN.md §15). A wider window spreads one emulation barrier over more
// builds; its later members are likelier to have their views changed by
// an earlier member's commit, which wastes their build.
constexpr size_t kSpeculationWindowPerThread = 16;

// Chunk sizes for the parallel read-only scans. Coarse enough that the
// per-chunk scheduling cost vanishes next to the geometry, fine enough to
// balance 8 threads on 10k-user workloads. Chunk boundaries never affect
// results (scans write index-addressed slots; commits run in index order).
constexpr size_t kUserGrain = 512;   // ShapeContains per user.
constexpr size_t kEdgeGrain = 256;   // ShapeMinDistance per edge.
constexpr size_t kPairGrain = 128;   // MatchRegion::Contains per pair.

/// Epoch-resolved circle form of a shape, when it has one. Circle and
/// MovingCircle predicates against these resolved circles are bit-exact
/// with the ShapeContains / ShapeMinDistance visitors (which resolve with
/// the same AtEpoch expression) — the batched kernels below rely on that.
bool AsCircleAt(const SafeRegionShape& s, int epoch, Circle* out) {
  if (const Circle* c = std::get_if<Circle>(&s)) {
    *out = *c;
    return true;
  }
  if (const MovingCircle* mc = std::get_if<MovingCircle>(&s)) {
    *out = mc->AtEpoch(epoch);
    return true;
  }
  return false;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Report's speed estimate: the mean step length of the reported window,
/// floored at kMinSpeed; `prior` when the window has under two points.
double WindowSpeed(const std::vector<Vec2>& window, double prior) {
  if (window.size() < 2) return prior;
  double dist = 0.0;
  for (size_t i = 1; i < window.size(); ++i) {
    dist += Distance(window[i - 1], window[i]);
  }
  return std::max(kMinSpeed, dist / static_cast<double>(window.size() - 1));
}

bool EdgesEqual(const std::vector<InterestGraph::Edge>& a,
                const std::vector<InterestGraph::Edge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].w != b[i].w ||
        a[i].alert_radius != b[i].alert_radius) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool RegionPolicy::BuildConcurrent(UserId u, const Vec2& location,
                                   const std::vector<Vec2>& recent_window,
                                   double speed,
                                   const std::vector<FriendView>& friends,
                                   int epoch, ConcurrentBuild* out) const {
  (void)u;
  (void)location;
  (void)recent_window;
  (void)speed;
  (void)friends;
  (void)epoch;
  (void)out;
  return false;
}

void RegionPolicy::RecordBuild(const BuildSample& sample) { (void)sample; }

void RegionPolicy::OnExit(UserId u) { (void)u; }
void RegionPolicy::OnProbe(UserId u) { (void)u; }

RegionDetector::RegionDetector(std::unique_ptr<RegionPolicy> policy)
    : RegionDetector(std::move(policy), Options()) {}

RegionDetector::RegionDetector(std::unique_ptr<RegionPolicy> policy,
                               Options options)
    : policy_(std::move(policy)), options_(options) {}

RegionDetector::~RegionDetector() = default;

std::string RegionDetector::name() const { return policy_->name(); }

// Per-run engine state; kept out of the header.
struct RegionDetector::Impl {
  struct UserState {
    std::optional<SafeRegionShape> region;
    double speed = kMinSpeed;  // m/epoch estimate from reported windows.
    Vec2 pos;  // Exact location; server-visible only when reported(u).
  };

  // Per-epoch flags, split out of UserState into one byte per user: the
  // epoch reset collapses to a single fill, and the scan phases touch a
  // dense array instead of striding through the fat region records. All
  // writes happen in serial-commit code; parallel scans only read.
  static constexpr uint8_t kReported = 1;
  static constexpr uint8_t kNeedsRegion = 2;
  static constexpr uint8_t kRebuilt = 4;
  static constexpr uint8_t kQueued = 8;
  std::vector<uint8_t> epoch_flags;
  bool reported(UserId u) const { return epoch_flags[u] & kReported; }
  bool needs_region(UserId u) const { return epoch_flags[u] & kNeedsRegion; }
  bool rebuilt(UserId u) const { return epoch_flags[u] & kRebuilt; }
  bool queued(UserId u) const { return epoch_flags[u] & kQueued; }
  void mark(UserId u, uint8_t bit) { epoch_flags[u] |= bit; }
  void unmark(UserId u, uint8_t bit) {
    epoch_flags[u] &= static_cast<uint8_t>(~bit);
  }

  const World& world;
  RegionDetector& self;
  InterestGraph graph;
  std::vector<UserState> users;
  std::unordered_map<uint64_t, MatchRegion> matched;
  std::deque<UserId> queue;
  int epoch = 0;

  const bool per_epoch_check;  // Policy has moving regions (FMD/CMD).

  // Reused scratch, kept allocation-free across epochs (clear, don't
  // free). The scan buffers are written by parallel read-only scans
  // (distinct slots per index / per chunk) and consumed by the serial
  // in-order commits below; window_buf, match_keys and friend_views are
  // only ever touched from serial code.
  std::vector<Vec2> window_buf;
  std::vector<uint8_t> exit_flags;    // Per user: see ExitFlag.
  std::vector<uint8_t> pair_inside;   // Per sorted matched-pair key.
  std::vector<uint8_t> edge_probe;    // Per cached edge: scan said d < r.
  std::vector<uint64_t> match_keys;   // Sorted matched-pair keys.
  std::vector<FriendView> friend_views;
  // Per-chunk SoA staging for the batched geometry kernels. One pool
  // serves every phase (they run sequentially): the exit scan stages
  // (circle, point) lanes, the match scan (circle, point) lane pairs,
  // the pair check (circle, circle, threshold) lanes. Cache-line aligned
  // like the buffers above — the headers are written from pool threads.
  struct alignas(64) BatchScratch {
    std::vector<uint32_t> ids;   // User id or edge slot per lane.
    std::vector<double> ax, ay, ar;  // First circle (center, radius).
    std::vector<double> bx, by, br;  // Point or second circle.
    std::vector<double> thr;         // Per-lane threshold.
    std::vector<uint8_t> flags;      // Kernel verdicts.
    uint64_t evaluated = 0;          // Pair check: predicates this chunk.
  };
  std::vector<BatchScratch> batch_chunks;
  // The edge snapshot, kept sorted by (u, w) and maintained *incrementally*
  // under graph updates (a delete/insert epoch used to re-snapshot and
  // re-sort the whole list via graph.Edges()). It is the pair check's only
  // input, so validate_builds checks the delta path against a from-scratch
  // snapshot after every update batch.
  std::vector<InterestGraph::Edge> edge_cache;
  uint64_t pair_candidates = 0;  // Predicates the pair check evaluated.

  // Speculative resolve (DESIGN.md §15); all of it stays empty on a
  // 1-thread pool, which never speculates. install_version[w] counts the
  // regions installed for w: a borrowed view is unchanged since a
  // speculative build read it when its pointer and this count both match.
  std::vector<uint64_t> install_version;
  // Progress of one window slot's build. A helper or the commit claims an
  // unclaimed slot; the commit drops the slot of a miss nobody claimed.
  enum SlotState : uint8_t { kUnclaimed, kBuilding, kBuilt, kDropped };
  // One queued user of the current window: the views its commit was
  // expected to collect, the install versions of their borrowed regions,
  // the user's frozen position, speed and recent window, and the build made
  // against them. Written while emulating and by the build's claimant; read
  // by the serial commit once `state` says the build is complete.
  struct alignas(64) SpecSlot {
    std::atomic<uint8_t> state{kUnclaimed};
    UserId user = -1;
    Vec2 pos;
    double speed = 0.0;
    bool built = false;  // False: the policy declined BuildConcurrent.
    std::vector<FriendView> views;
    std::vector<uint64_t> versions;  // install_version per view.
    std::vector<Vec2> window;  // Also scratch for probed friends' windows.
    ConcurrentBuild build;
  };
  // Sized once to the window capacity (slots are not movable).
  std::vector<SpecSlot> spec_slots;
  size_t spec_size = 0;  // Members of the current window.
  size_t spec_next = 0;  // The next member the commit reaches.
  // More than one pool thread, and the policy has not declined.
  bool speculate;

  // The rendezvous between the resolve phase's driver (the Run() thread)
  // and its resident build helpers, one pool task per extra pool thread
  // for the whole phase. Shared-owned: a helper the pool starts only after
  // its phase ended (Run() itself inside a pool task) finds `done` and
  // returns without touching the engine, which it reaches through `impl`
  // only inside an open window.
  struct BuildCrew {
    Impl* impl = nullptr;
    // 2g + 1 while window g is open, 2g + 2 once the driver closed it.
    std::atomic<uint64_t> window{0};
    std::atomic<unsigned> inside{0};  // Helpers working in the window.
    std::atomic<bool> done{false};    // The phase ended.
    std::atomic<size_t> next_emulate{0};
    std::atomic<size_t> emulated{0};
    std::atomic<size_t> next_build{0};
  };
  std::shared_ptr<BuildCrew> crew;  // The current phase's; null when serial.
  uint64_t commit_wait_ns = 0;      // This phase's, flushed at its end.

  enum ExitFlag : uint8_t { kInside = 0, kExited = 1, kNeedsInit = 2 };

  Impl(const World& w, RegionDetector& s)
      : epoch_flags(w.user_count(), 0),
        world(w),
        self(s),
        graph(w.graph()),
        users(w.user_count()),
        per_epoch_check(s.policy_->NeedsPerEpochPairCheck()),
        speculate(ThreadPool::Global().thread_count() > 1) {
    if (per_epoch_check) edge_cache = graph.Edges();
    if (speculate) install_version.assign(w.user_count(), 0);
  }

  bool IsMatched(UserId u, UserId w) const {
    return matched.count(PairKey(u, w)) > 0;
  }

  /// Client -> server location upload (at most one per user per epoch).
  /// Serial-commit code only (reuses the shared window buffer).
  void Report(UserId u) {
    if (reported(u)) return;
    mark(u, kReported);
    self.stats_.reports += 1;
    EngineMetrics::Get().reports.Inc();
    // The report carries the recent window; refresh the speed estimate.
    if (self.link_ != nullptr) {
      // Transported run: the client uploads through the wire and the engine
      // consumes position + window exactly as the server decoded them (the
      // codec's exact round-trip keeps this bit-identical to the direct
      // read below).
      self.link_->Report(u, epoch, kWindow, &users[u].pos, &window_buf);
    } else {
      world.RecentWindow(u, epoch, kWindow, &window_buf);
    }
    users[u].speed = WindowSpeed(window_buf, users[u].speed);
  }

  void EnqueueRebuild(UserId u) {
    mark(u, kNeedsRegion);
    if (!queued(u)) {
      mark(u, kQueued);
      queue.push_back(u);
    }
  }

  /// Server -> client probe: request the exact location, then rebuild the
  /// probed user's region (Sec. V-B case 2).
  void Probe(UserId u) {
    if (reported(u)) {
      EnqueueRebuild(u);
      return;
    }
    self.stats_.probes += 1;
    EngineMetrics::Get().probes.Inc();
    if (self.link_ != nullptr) self.link_->Probe(u, epoch);
    Report(u);
    EnqueueRebuild(u);
    self.policy_->OnProbe(u);
  }

  /// Both endpoints exact and within radius: fire the alert, install the
  /// match region (Def. 3), and drop the pair from safe-region duty.
  void CreateMatch(UserId u, UserId w, double r) {
    const MatchRegion region = MatchRegion::Make(users[u].pos, users[w].pos, r);
    const uint64_t key = PairKey(u, w);
    matched.emplace(key, region);
    const UserId a = std::min(u, w);
    const UserId b = std::max(u, w);
    self.alerts_.push_back({epoch, a, b});
    self.stats_.alerts += 2;
    EngineMetrics::Get().alerts.Inc(2);
    if (self.link_ != nullptr) {
      self.link_->Alert(u, a, b, epoch);
      self.link_->Alert(w, a, b, epoch);
    }
    if (self.options_.use_match_regions) {
      self.stats_.match_installs += 2;
      EngineMetrics::Get().match_installs.Inc(2);
      if (self.link_ != nullptr) {
        self.link_->InstallMatch(u, epoch, MatchOp::kCreate, a, b,
                                 region.circle());
        self.link_->InstallMatch(w, epoch, MatchOp::kCreate, a, b,
                                 region.circle());
      }
    }
  }

  void DissolveMatch(UserId u, UserId w) {
    const uint64_t key = PairKey(u, w);
    matched.erase(key);
    if (self.options_.use_match_regions) {
      self.stats_.match_installs += 2;  // Deletion notices.
      EngineMetrics::Get().match_installs.Inc(2);
      if (self.link_ != nullptr) {
        const UserId a = std::min(u, w);
        const UserId b = std::max(u, w);
        self.link_->InstallMatch(u, epoch, MatchOp::kDelete, a, b, Circle{});
        self.link_->InstallMatch(w, epoch, MatchOp::kDelete, a, b, Circle{});
      }
    }
  }

  /// Applies one inserted edge to the incremental structures.
  void OnEdgeInserted(UserId u, UserId w, double r) {
    if (per_epoch_check) {
      const UserId a = std::min(u, w);
      const UserId b = std::max(u, w);
      const InterestGraph::Edge edge{a, b, r};
      const auto it = std::lower_bound(
          edge_cache.begin(), edge_cache.end(), edge,
          [](const InterestGraph::Edge& x, const InterestGraph::Edge& y) {
            return x.u != y.u ? x.u < y.u : x.w < y.w;
          });
      edge_cache.insert(it, edge);
    }
  }

  /// Applies one deleted edge to the incremental structures.
  void OnEdgeRemoved(UserId u, UserId w) {
    if (per_epoch_check) {
      const UserId a = std::min(u, w);
      const UserId b = std::max(u, w);
      const auto it = std::lower_bound(
          edge_cache.begin(), edge_cache.end(), InterestGraph::Edge{a, b, 0.0},
          [](const InterestGraph::Edge& x, const InterestGraph::Edge& y) {
            return x.u != y.u ? x.u < y.u : x.w < y.w;
          });
      if (it != edge_cache.end() && it->u == a && it->w == b) {
        edge_cache.erase(it);
      }
    }
  }

  /// Applies scheduled interest-graph changes at epoch start (Sec. VI-E).
  void ApplyGraphUpdates(size_t* next_update) {
    const auto& updates = world.scheduled_updates();
    bool changed = false;
    while (*next_update < updates.size() &&
           updates[*next_update].epoch <= epoch) {
      const GraphUpdate& up = updates[*next_update];
      ++*next_update;
      if (up.insert) {
        if (!graph.AddEdge(up.u, up.w, up.alert_radius)) continue;
        changed = true;
        OnEdgeInserted(up.u, up.w, up.alert_radius);
        // New pair: probe only when their current regions may violate the
        // radius (the paper's insertion rule).
        if (users[up.u].region && users[up.w].region &&
            ShapeMinDistanceBelow(*users[up.u].region, *users[up.w].region,
                                  epoch, up.alert_radius + kMinGap,
                                  /*inclusive=*/true)) {
          Probe(up.u);
          Probe(up.w);
        }
      } else {
        if (IsMatched(up.u, up.w)) DissolveMatch(up.u, up.w);
        if (!graph.RemoveEdge(up.u, up.w)) continue;
        changed = true;
        OnEdgeRemoved(up.u, up.w);
        // Safe regions are retained; they were conservative for the
        // deleted edge, which is always sound.
      }
    }
    if (changed && per_epoch_check && self.options_.validate_builds) {
      // The dynamic-graph tests run with validation on: the incremental
      // snapshot must equal a from-scratch re-sort after every batch.
      if (!EdgesEqual(edge_cache, graph.Edges())) {
        self.validation_failures_ += 1;
      }
    }
  }

  /// Clients compare their position against match regions (Algorithm 1
  /// lines 10-18). Parallel scan: both containment tests per pair fan out
  /// over the pool (the map and every position are read-only until the
  /// commit). Serial commit: reports, re-centers and dissolutions apply in
  /// sorted-key order, so stats and dissolution side effects are identical
  /// to the historical serial loop for any thread count.
  void MatchRegionPhase() {
    // Collect keys first: dissolution mutates the map.
    match_keys.clear();
    for (const auto& [key, region] : matched) {
      (void)region;
      match_keys.push_back(key);
    }
    std::sort(match_keys.begin(), match_keys.end());  // Deterministic.
    if (self.options_.use_match_regions) {
      const size_t n = match_keys.size();
      pair_inside.assign(n, 0);
      const size_t chunks = n == 0 ? 0 : (n + kPairGrain - 1) / kPairGrain;
      // Both strict containment tests of every pair stage as two adjacent
      // SoA lanes against the pair's match circle and settle in one
      // batched kernel call; ANDing the lane verdicts equals the scalar
      // `Contains(pu) && Contains(pw)` (pure predicates — short-circuiting
      // is unobservable).
      if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
      ParallelForChunked(n, kPairGrain, [&](size_t lo, size_t hi) {
        BatchScratch& sc = batch_chunks[lo / kPairGrain];
        const size_t m = (hi - lo) * 2;
        sc.ax.resize(m);
        sc.ay.resize(m);
        sc.ar.resize(m);
        sc.bx.resize(m);
        sc.by.resize(m);
        sc.flags.resize(m);
        for (size_t k = lo; k < hi; ++k) {
          const uint64_t key = match_keys[k];
          const Circle& c = matched.find(key)->second.circle();
          const Vec2& pu = users[PairKeyMin(key)].pos;
          const Vec2& pw = users[PairKeyMax(key)].pos;
          const size_t j = (k - lo) * 2;
          sc.ax[j] = sc.ax[j + 1] = c.center.x;
          sc.ay[j] = sc.ay[j + 1] = c.center.y;
          sc.ar[j] = sc.ar[j + 1] = c.radius;
          sc.bx[j] = pu.x;
          sc.by[j] = pu.y;
          sc.bx[j + 1] = pw.x;
          sc.by[j + 1] = pw.y;
        }
        SimdScanMetrics::Get().match_batch.Record(static_cast<double>(m));
        SimdScanMetrics::Get().dispatches.Inc();
        simd::CirclesContainPoints(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                   sc.bx.data(), sc.by.data(), m,
                                   /*strict=*/true, sc.flags.data());
        for (size_t k = lo; k < hi; ++k) {
          const size_t j = (k - lo) * 2;
          pair_inside[k] = sc.flags[j] != 0 && sc.flags[j + 1] != 0;
        }
      });
    }
    for (size_t k = 0; k < match_keys.size(); ++k) {
      const uint64_t key = match_keys[k];
      const auto it = matched.find(key);
      if (it == matched.end()) continue;
      const UserId u = PairKeyMin(key);
      const UserId w = PairKeyMax(key);
      if (self.options_.use_match_regions && pair_inside[k]) {
        continue;
      }
      Report(u);
      Report(w);
      const double r = graph.AlertRadius(u, w);
      const double d = Distance(users[u].pos, users[w].pos);
      if (d < r) {
        if (self.options_.use_match_regions) {
          it->second = MatchRegion::Make(users[u].pos, users[w].pos, r);
          self.stats_.match_installs += 2;
          EngineMetrics::Get().match_installs.Inc(2);
          if (self.link_ != nullptr) {
            self.link_->InstallMatch(u, epoch, MatchOp::kUpdate, u, w,
                                     it->second.circle());
            self.link_->InstallMatch(w, epoch, MatchOp::kUpdate, u, w,
                                     it->second.circle());
          }
        }
      } else {
        DissolveMatch(u, w);
        // Both return to safe-region tracking against each other.
        EnqueueRebuild(u);
        EnqueueRebuild(w);
      }
    }
  }

  /// Clients compare their position against their safe region (Algorithm 1
  /// lines 19-21). Parallel scan: every user's ShapeContains runs on the
  /// pool into a per-user flag (regions and positions are read-only here).
  /// Serial commit: Report / EnqueueRebuild / OnExit fire in user order,
  /// exactly as the historical serial loop did.
  void SafeRegionExitPhase() {
    const size_t n = users.size();
    exit_flags.assign(n, kInside);
    const size_t chunks = n == 0 ? 0 : (n + kUserGrain - 1) / kUserGrain;
    if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
    ParallelForChunked(n, kUserGrain, [&](size_t lo, size_t hi) {
      // Circle-form regions (initialization circles, FMD/CMD moving
      // circles) stage into SoA lanes and settle with one batched
      // closed-containment kernel call; stripes go through
      // Stripe::Contains, which is itself vectorized across the stripe's
      // cached segments. Verdicts are bit-exact either way, so exit_flags
      // is identical to the scalar scan's.
      BatchScratch& sc = batch_chunks[lo / kUserGrain];
      sc.ids.clear();
      sc.ax.clear();
      sc.ay.clear();
      sc.ar.clear();
      sc.bx.clear();
      sc.by.clear();
      for (size_t u = lo; u < hi; ++u) {
        if (!users[u].region) {
          // Only possible at epoch 0 before initialization.
          exit_flags[u] = kNeedsInit;
          continue;
        }
        Circle c;
        if (AsCircleAt(*users[u].region, epoch, &c)) {
          sc.ids.push_back(static_cast<uint32_t>(u));
          sc.ax.push_back(c.center.x);
          sc.ay.push_back(c.center.y);
          sc.ar.push_back(c.radius);
          sc.bx.push_back(users[u].pos.x);
          sc.by.push_back(users[u].pos.y);
        } else if (!ShapeContains(*users[u].region, users[u].pos, epoch)) {
          exit_flags[u] = kExited;
        }
      }
      const size_t m = sc.ids.size();
      sc.flags.resize(m);
      SimdScanMetrics::Get().exit_batch.Record(static_cast<double>(m));
      SimdScanMetrics::Get().dispatches.Inc();
      simd::CirclesContainPoints(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                 sc.bx.data(), sc.by.data(), m,
                                 /*strict=*/false, sc.flags.data());
      for (size_t k = 0; k < m; ++k) {
        if (!sc.flags[k]) exit_flags[sc.ids[k]] = kExited;
      }
    });
    for (UserId u = 0; u < static_cast<UserId>(n); ++u) {
      if (exit_flags[u] == kInside) continue;
      Report(u);
      EnqueueRebuild(u);
      if (exit_flags[u] == kExited) {
        EngineMetrics::Get().exits.Inc();
        self.policy_->OnExit(u);
      }
    }
  }

  /// Moving regions (FMD/CMD) drift toward each other between rebuilds;
  /// the server probes pairs whose regions may now violate the radius.
  ///
  /// Parallel scan: every cached edge's region-pair comparison runs on the
  /// pool into a per-edge slot, filtered on the phase-*start* state
  /// (matched set and regions cannot change during this phase;
  /// needs_region only grows). Serial commit: flagged edges are walked in
  /// slot order — ascending (u, w) — with the skip conditions re-evaluated
  /// against the *current* state, so a probe issued for an earlier edge
  /// suppresses later edges of the same user exactly as the historical
  /// serial loop did.
  void PerEpochPairCheck() {
    const size_t n = edge_cache.size();
    edge_probe.assign(n, 0);
    const size_t chunks = n == 0 ? 0 : (n + kEdgeGrain - 1) / kEdgeGrain;
    if (batch_chunks.size() < chunks) batch_chunks.resize(chunks);
    ParallelForChunked(n, kEdgeGrain, [&](size_t lo, size_t hi) {
      // Circle-circle pairs (the only kind FMD/CMD install) stage into SoA
      // lanes; one batched gap < r kernel call settles the chunk.
      // ShapeMinDistanceBelow's AABB prune only ever skips exact math whose
      // outcome is already decided (box distance never exceeds the shape
      // distance), so the direct exact compare is outcome-identical.
      // Mixed/other shapes keep the pruned scalar call.
      BatchScratch& sc = batch_chunks[lo / kEdgeGrain];
      sc.ids.clear();
      sc.ax.clear();
      sc.ay.clear();
      sc.ar.clear();
      sc.bx.clear();
      sc.by.clear();
      sc.br.clear();
      sc.thr.clear();
      uint64_t scalar_calls = 0;
      for (size_t i = lo; i < hi; ++i) {
        const auto& e = edge_cache[i];
        if (IsMatched(e.u, e.w)) continue;
        if (needs_region(e.u) || needs_region(e.w)) continue;
        if (!users[e.u].region || !users[e.w].region) continue;
        Circle ca, cb;
        if (AsCircleAt(*users[e.u].region, epoch, &ca) &&
            AsCircleAt(*users[e.w].region, epoch, &cb)) {
          sc.ids.push_back(static_cast<uint32_t>(i));
          sc.ax.push_back(ca.center.x);
          sc.ay.push_back(ca.center.y);
          sc.ar.push_back(ca.radius);
          sc.bx.push_back(cb.center.x);
          sc.by.push_back(cb.center.y);
          sc.br.push_back(cb.radius);
          sc.thr.push_back(e.alert_radius);
        } else {
          scalar_calls += 1;
          edge_probe[i] = ShapeMinDistanceBelow(
              *users[e.u].region, *users[e.w].region, epoch, e.alert_radius);
        }
      }
      const size_t m = sc.ids.size();
      sc.evaluated = m + scalar_calls;
      sc.flags.resize(m);
      SimdScanMetrics::Get().pair_check_batch.Record(static_cast<double>(m));
      SimdScanMetrics::Get().dispatches.Inc();
      simd::CirclePairsGapBelow(sc.ax.data(), sc.ay.data(), sc.ar.data(),
                                sc.bx.data(), sc.by.data(), sc.br.data(),
                                sc.thr.data(), m, sc.flags.data());
      for (size_t k = 0; k < m; ++k) {
        edge_probe[sc.ids[k]] = sc.flags[k];
      }
    });
    for (size_t c = 0; c < chunks; ++c) {
      pair_candidates += batch_chunks[c].evaluated;
    }
    for (size_t i = 0; i < n; ++i) {
      if (!edge_probe[i]) continue;
      const auto& e = edge_cache[i];
      // Re-check with commit-time state: earlier probes may have flagged an
      // endpoint for rebuild, which skips the pair just as the serial loop
      // would have.
      if (IsMatched(e.u, e.w)) continue;
      if (needs_region(e.u) || needs_region(e.w)) continue;
      EngineMetrics::Get().pair_check_probed_edges.Inc();
      Probe(e.u);
      Probe(e.w);
    }
  }

  /// True when some friend view's region already lies within the pair's
  /// alert radius of `l_u` (a reported friend keeps its installed region
  /// unless it rebuilds). No region containing l_u can then satisfy the
  /// policy contract; policies fall back to a zero-radius region, so
  /// validate_builds only checks the builds that had room.
  bool Squeezed(const Vec2& l_u) const {
    for (const FriendView& view : friend_views) {
      if (ShapeDistanceToPointBelow(view.region(), l_u, epoch,
                                    view.alert_radius)) {
        return true;
      }
    }
    return false;
  }

  /// Pass 1's probe rule: an unreported friend `w` is probed when its
  /// region leaves the rebuilding user (at `l_u`) no more than kMinGap
  /// beyond the alert radius.
  bool ProbeWanted(const Vec2& l_u, UserId w, double r) const {
    // gap <= kMinGap, phrased so the AABB lower bound can settle the
    // comparison without exact point-to-shape geometry.
    return ShapeDistanceToPointBelow(*users[w].region, l_u, epoch,
                                     r + kMinGap, /*inclusive=*/true);
  }

  /// Pass 1's match rule for a reported (exact) friend.
  bool WithinAlertRadius(const Vec2& l_u, UserId w, double r) const {
    return Distance(l_u, users[w].pos) < r;
  }

  /// Pass 2's view of an unmatched friend whose speed estimate is
  /// `speed_w`. A friend that rebuilds later this epoch (`split`) is a
  /// virtual circle holding its Eq. (5) share of the slack, so the pair
  /// splits the corridor speed-proportionally (Lemma 2); safety is then
  /// sealed when the friend builds against u's real region. Any other
  /// friend lends its installed region.
  FriendView MakeView(const Vec2& l_u, double v_u, const FriendEdge& fe,
                      double speed_w, bool split) const {
    const UserId w = fe.other;
    FriendView view;
    view.id = w;
    view.alert_radius = fe.alert_radius;
    view.speed = std::max(speed_w, kMinSpeed);
    if (split) {
      const double d = Distance(l_u, users[w].pos);
      const double share =
          InitializationRadius(view.speed, v_u, d, fe.alert_radius);
      view.owned_region = Circle{users[w].pos, share};
    } else {
      view.borrowed = &*users[w].region;
    }
    return view;
  }

  /// Read-only emulation of the slot user u's pass 1 and pass 2 against the
  /// current state (it runs on the pool): the views u's commit collects if
  /// no earlier commit touches u's friends first. A friend pass 1 would
  /// probe reports — its speed refreshed by Report's rule — and queues a
  /// rebuild; one pass 1 would match drops out.
  void EmulateViews(SpecSlot* slot) const {
    const UserId u = slot->user;
    const Vec2& l_u = users[u].pos;
    const double v_u = users[u].speed;
    slot->pos = l_u;
    slot->speed = v_u;
    slot->views.clear();
    slot->versions.clear();
    for (const FriendEdge& fe : graph.FriendsOf(u)) {
      const UserId w = fe.other;
      if (IsMatched(u, w)) continue;
      bool reported_w = reported(w);
      bool needs_w = needs_region(w);
      double speed_w = users[w].speed;
      if (!reported_w && ProbeWanted(l_u, w, fe.alert_radius)) {
        world.RecentWindow(w, epoch, kWindow, &slot->window);
        speed_w = WindowSpeed(slot->window, speed_w);
        reported_w = needs_w = true;
      }
      if (reported_w && WithinAlertRadius(l_u, w, fe.alert_radius)) continue;
      const bool split = reported_w && needs_w && !rebuilt(w);
      slot->views.push_back(MakeView(l_u, v_u, fe, speed_w, split));
      slot->versions.push_back(install_version[w]);
    }
    world.RecentWindow(u, epoch, kWindow, &slot->window);
  }

  /// True when the views the commit collected are the ones the speculative
  /// build read: the same friends in the same order, bit-equal alert radii,
  /// speeds and owned circles, and borrowed regions not reinstalled since
  /// (same pointer, same install version).
  bool SameViews(const SpecSlot& slot) const {
    if (slot.views.size() != friend_views.size()) return false;
    for (size_t i = 0; i < friend_views.size(); ++i) {
      const FriendView& a = friend_views[i];
      const FriendView& b = slot.views[i];
      if (a.id != b.id || a.borrowed != b.borrowed ||
          !SameBits(a.alert_radius, b.alert_radius) ||
          !SameBits(a.speed, b.speed)) {
        return false;
      }
      if (a.borrowed != nullptr) {
        if (install_version[a.id] != slot.versions[i]) return false;
        continue;
      }
      const Circle* ca = std::get_if<Circle>(&a.owned_region);
      const Circle* cb = std::get_if<Circle>(&b.owned_region);
      if (ca == nullptr || cb == nullptr ||
          !SameBits(ca->center.x, cb->center.x) ||
          !SameBits(ca->center.y, cb->center.y) ||
          !SameBits(ca->radius, cb->radius)) {
        return false;
      }
    }
    return true;
  }

  /// Emulates window slots until none is left unclaimed. Driver and
  /// helpers share this work while engine state is frozen.
  void EmulateWindow(BuildCrew& c) {
    for (size_t i; (i = c.next_emulate.fetch_add(
                        1, std::memory_order_relaxed)) < spec_size;) {
      SpecSlot& slot = spec_slots[i];
      try {
        EmulateViews(&slot);
      } catch (...) {
        // The commit then builds inline, where the error surfaces.
        slot.state.store(kDropped, std::memory_order_relaxed);
      }
      c.emulated.fetch_add(1, std::memory_order_release);
    }
  }

  /// Runs the build of a slot its caller claimed, against the emulated
  /// views. It reads only the slot and the regions the views borrow.
  void BuildSlot(SpecSlot& slot) {
    try {
      slot.built = self.policy_->BuildConcurrent(
          slot.user, slot.pos, slot.window, slot.speed, slot.views, epoch,
          &slot.build);
    } catch (...) {
      slot.built = false;  // As if declined; the inline build rethrows.
    }
    slot.state.store(kBuilt, std::memory_order_release);
  }

  static bool Claim(SpecSlot& slot) {
    uint8_t s = kUnclaimed;
    return slot.state.compare_exchange_strong(s, kBuilding,
                                              std::memory_order_acq_rel);
  }

  /// Claims the first unclaimed slot in queue order and builds it. False
  /// when no slot is left to claim.
  bool BuildNext(BuildCrew& c) {
    for (size_t i; (i = c.next_build.fetch_add(
                        1, std::memory_order_relaxed)) < spec_size;) {
      if (Claim(spec_slots[i])) {
        BuildSlot(spec_slots[i]);
        return true;
      }
    }
    return false;
  }

  /// One helper's share of an open window: emulate, wait for the barrier,
  /// then build ahead of the commit until every slot is claimed.
  void HelpWindow(BuildCrew& c) {
    EmulateWindow(c);
    while (c.emulated.load(std::memory_order_acquire) < spec_size) {
      std::this_thread::yield();
    }
    uint64_t builds = 0;
    while (BuildNext(c)) ++builds;
    SpeculationMetrics::Get().helper_builds.Inc(builds);
  }

  /// A resident helper: one pool task for the whole resolve phase. It
  /// spins on the window counter, joins each window it sees open, and
  /// returns to the pool when the driver ends the phase. It waits only on
  /// the driver, never on a queued pool task. Joining is a Dekker
  /// handshake with CloseWindow: announce (`inside`), then re-check that
  /// the window is still the one seen open.
  static void HelpPhase(const std::shared_ptr<BuildCrew>& c) {
    uint64_t seen = 0;
    for (;;) {
      const uint64_t w = c->window.load();
      if ((w & 1) == 0 || w == seen) {
        if (c->done.load()) return;
        std::this_thread::yield();
        continue;
      }
      seen = w;
      c->inside.fetch_add(1);
      if (c->window.load() == w) c->impl->HelpWindow(*c);
      c->inside.fetch_sub(1);
    }
  }

  /// Starts the resolve phase's helpers and sizes the window slots once.
  void StartCrew() {
    ThreadPool& pool = ThreadPool::Global();
    if (spec_slots.empty()) {
      spec_slots = std::vector<SpecSlot>(kSpeculationWindowPerThread *
                                         pool.thread_count());
    }
    crew = std::make_shared<BuildCrew>();
    crew->impl = this;
    for (unsigned h = 1; h < pool.thread_count(); ++h) {
      pool.Submit([c = crew] { HelpPhase(c); });
    }
  }

  /// Opens the next window over the front of the queue, up to
  /// kSpeculationWindowPerThread users per pool thread. Engine state stays
  /// frozen while the driver and the helpers emulate each member's views;
  /// after that barrier the helpers build ahead while the driver commits.
  void OpenWindow() {
    obs::TraceScope span("speculate", "engine");
    spec_size = std::min(queue.size(), spec_slots.size());
    spec_next = 0;
    for (size_t i = 0; i < spec_size; ++i) {
      spec_slots[i].user = queue[i];
      spec_slots[i].state.store(kUnclaimed, std::memory_order_relaxed);
    }
    crew->next_emulate.store(0, std::memory_order_relaxed);
    crew->emulated.store(0, std::memory_order_relaxed);
    crew->next_build.store(0, std::memory_order_relaxed);
    crew->window.fetch_add(1);  // Odd: open.
    EmulateWindow(*crew);
    while (crew->emulated.load(std::memory_order_acquire) < spec_size) {
      std::this_thread::yield();
    }
  }

  /// Closes the open window, if any: no helper joins it afterwards, and
  /// every claimed build (a miss's included) has finished once this
  /// returns, so the slots may be reused.
  void CloseWindow() {
    if ((crew->window.load(std::memory_order_relaxed) & 1) == 0) return;
    crew->window.fetch_add(1);  // Even: closed.
    while (crew->inside.load() != 0) std::this_thread::yield();
    spec_size = spec_next = 0;
  }

  /// Ends the phase: the helpers return to the pool.
  void EndCrew() {
    CloseWindow();
    crew->done.store(true);
    crew.reset();
    SpeculationMetrics::Get().commit_wait_ns.Inc(commit_wait_ns);
    commit_wait_ns = 0;
  }

  /// Settles the commit's window slot. On a hit (`views_match`) the slot's
  /// build is taken: made ahead by a helper, waited for when one is still
  /// building it (the commit builds other unclaimed slots meanwhile), or
  /// made here when nobody claimed it. On a miss the slot is dropped, or
  /// left to finish if in flight, and the caller builds inline. True when
  /// `*shape` holds the slot's region.
  bool TakeSlot(SpecSlot& slot, bool views_match, SafeRegionShape* shape) {
    const uint8_t state = slot.state.load(std::memory_order_acquire);
    if (state == kBuilt && slot.built) {
      SpeculationMetrics::Get().speculated.Inc();
      if (views_match) SpeculationMetrics::Get().hits.Inc();
    }
    if (!views_match) {
      uint8_t s = kUnclaimed;
      slot.state.compare_exchange_strong(s, kDropped,
                                         std::memory_order_relaxed);
      return false;
    }
    if (state == kUnclaimed && Claim(slot)) {
      BuildSlot(slot);
    } else {
      // A helper is building it: help with the window's unclaimed builds,
      // and count only the time spent with nothing left to help with.
      while (slot.state.load(std::memory_order_acquire) != kBuilt) {
        if (BuildNext(*crew)) continue;
        const auto idle = std::chrono::steady_clock::now();
        std::this_thread::yield();
        commit_wait_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - idle)
                .count());
      }
    }
    if (!slot.built) {
      speculate = false;  // The policy declined: no further windows.
      return false;
    }
    self.policy_->RecordBuild(*slot.build.sample);
    *shape = std::move(slot.build.shape);
    return true;
  }

  /// The rebuild loop: pops users needing a region in queue order, probes
  /// friends that are dangerously close, detects fresh matches, then
  /// installs a region built against the friends' effective regions. With
  /// more than one pool thread, resident helpers build the next window of
  /// queued users ahead of the commit; a commit takes its user's build
  /// only when the views match, else builds inline, so the output is the
  /// serial loop's for any thread count.
  void ResolvePhase() {
    // Ends the phase's helpers on every way out, an exception's included:
    // until the window closes they read the engine state and the slots.
    struct CrewEnd {
      Impl* impl;
      ~CrewEnd() {
        if (impl->crew != nullptr) impl->EndCrew();
      }
    } crew_end{this};
    if (speculate && !queue.empty()) StartCrew();
    while (!queue.empty()) {
      if (crew != nullptr && spec_next == spec_size) {
        CloseWindow();
        if (speculate) OpenWindow();
      }
      const UserId u = queue.front();
      queue.pop_front();
      SpecSlot* slot = spec_next < spec_size ? &spec_slots[spec_next++]
                                             : nullptr;
      if (!needs_region(u)) {
        if (slot != nullptr) TakeSlot(*slot, false, nullptr);
        continue;
      }
      const Vec2 l_u = users[u].pos;
      const double v_u = users[u].speed;

      // Pass 1: probe friends whose region leaves no slack, then settle
      // alerts against every exact friend.
      for (const FriendEdge& fe : graph.FriendsOf(u)) {
        const UserId w = fe.other;
        if (IsMatched(u, w)) continue;
        if (!reported(w) && ProbeWanted(l_u, w, fe.alert_radius)) {
          Probe(w);
        }
        if (reported(w) && WithinAlertRadius(l_u, w, fe.alert_radius)) {
          CreateMatch(u, w, fe.alert_radius);
        }
      }

      // Pass 2: collect effective constraint regions for unmatched friends.
      friend_views.clear();
      for (const FriendEdge& fe : graph.FriendsOf(u)) {
        const UserId w = fe.other;
        if (IsMatched(u, w)) continue;
        friend_views.push_back(
            MakeView(l_u, v_u, fe, users[w].speed,
                     reported(w) && needs_region(w) && !rebuilt(w)));
      }

      SafeRegionShape shape;
      const bool taken =
          slot != nullptr &&
          TakeSlot(*slot,
                   slot->user == u &&
                       slot->state.load(std::memory_order_relaxed) !=
                           kDropped &&
                       SameViews(*slot),
                   &shape);
      if (!taken) {
        world.RecentWindow(u, epoch, kWindow, &window_buf);
        shape = self.policy_->BuildRegion(u, l_u, window_buf, v_u,
                                          friend_views, epoch);
      }
      if (self.options_.validate_builds && !Squeezed(l_u)) {
        bool sound = ShapeContains(shape, l_u, epoch);
        for (const FriendView& view : friend_views) {
          const double d = ShapeMinDistance(shape, view.region(), epoch);
          if (d < view.alert_radius - 1e-6) sound = false;
        }
        if (!sound) self.validation_failures_ += 1;
      }
      if (self.link_ != nullptr) self.link_->InstallRegion(u, epoch, shape);
      users[u].region = std::move(shape);
      if (!install_version.empty()) install_version[u] += 1;
      mark(u, kRebuilt);
      unmark(u, kNeedsRegion);
      self.stats_.region_installs += 1;
      self.rebuild_count_ += 1;
      EngineMetrics::Get().region_installs.Inc();
      EngineMetrics::Get().rebuilds.Inc();
    }
  }

  void Run() {
    size_t next_update = 0;
    for (epoch = 0; epoch < world.epochs(); ++epoch) {
      // Streaming worlds generate this epoch's positions here — the one
      // serial point before the parallel fetch fan-out below.
      world.BeginEpoch(epoch);
      // Per-epoch flags clear in one pass over the dense byte array;
      // the position fetch fans out over independent slots.
      std::fill(epoch_flags.begin(), epoch_flags.end(), uint8_t{0});
      ParallelForChunked(users.size(), kUserGrain, [&](size_t lo, size_t hi) {
        for (size_t u = lo; u < hi; ++u) {
          users[u].pos = world.Position(static_cast<UserId>(u), epoch);
        }
      });
      queue.clear();
      EngineMetrics::Get().epochs.Inc();
      {
        // Server-side bookkeeping time (Figure 8's CPU axis) now accumulates
        // via RAII: no phase reordering or early exit can skip it. The phase
        // spans only observe — recording happens outside the traced scopes'
        // bodies and never feeds back into the computation.
        ScopedTimer server_timer(self.stats_.server_seconds);
        {
          obs::TraceScope span("graph_updates", "engine");
          ApplyGraphUpdates(&next_update);
        }
        {
          obs::TraceScope span("match_region", "engine");
          ScopedTimer phase_timer(self.phase_times_.match_region);
          MatchRegionPhase();
        }
        {
          obs::TraceScope span("exit_scan", "engine");
          ScopedTimer phase_timer(self.phase_times_.exit_check);
          SafeRegionExitPhase();
        }
        if (per_epoch_check) {
          obs::TraceScope span("pair_check", "engine");
          ScopedTimer phase_timer(self.phase_times_.pair_check);
          PerEpochPairCheck();
        }
        {
          obs::TraceScope span("resolve", "engine");
          ScopedTimer phase_timer(self.phase_times_.rebuild);
          ResolvePhase();
        }
      }
      // Epoch barrier: lets a transported link flush its per-client batch
      // queues. Outside the server timer — it is wire time, not proximity
      // bookkeeping.
      if (self.link_ != nullptr) self.link_->EndEpoch(epoch);
    }
  }
};

void RegionDetector::Run(const World& world) {
  stats_ = CommStats();
  phase_times_ = PhaseTimes();
  alerts_.clear();
  rebuild_count_ = 0;
  validation_failures_ = 0;
  index_stats_ = SpatialIndexStats();
  Impl impl(world, *this);
  impl.Run();
  index_stats_.candidates = impl.pair_candidates;
}

}  // namespace proxdet
