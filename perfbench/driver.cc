// perfbench_driver: runs one benchmark workload from a seed and prints one
// JSON document with every metric, the correctness checks and the machine
// it ran on. perfbench/run.py builds it, runs it and turns the document
// into the benchmark's result line; see perfbench/README.md.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--users N --epochs S] [--spans FILE]
//   perfbench_driver --selftest
//
// A run is a sequence of episodes. An episode is what one user of the
// library does: build the scenario, train and calibrate the predictor,
// construct the detector (and the transport), then run every epoch. The
// end-to-end run installs only the generator wrapper (one clock read per
// epoch); the traced run (--trace 1) installs every wrapper of seams.h.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/mem_probe.h"
#include "core/policies.h"
#include "core/simulation.h"
#include "exec/thread_pool.h"
#include "geom/simd/simd.h"
#include "net/transport.h"
#include "seams.h"
#include "traj/scenario.h"

PROXDET_INSTALL_ALLOC_PROBE()

namespace perfbench {
namespace {

using proxdet::AlertEvent;
using proxdet::CommStats;
using proxdet::Method;
using proxdet::ScenarioKind;
using proxdet::SpatialIndexStats;
using proxdet::net::NetRunStats;

// Episodes every run completes, whatever --seconds says.
constexpr int kMinEpisodes = 2;
constexpr size_t kTrainingUsers = 60;
constexpr int kTrainingEpochs = 200;

struct WorkloadDef {
  const char* name;
  ScenarioKind scenario;
  Method method;  // kStripeKf or kCmd.
  size_t users;
  int epochs;
  bool wire;
  // Engine thread-pool size (driver thread included).
  unsigned pool_threads;
  // Timed set-up builds per run (after one untimed warm-up build).
  int setup_builds;
  // Wall time of one untraced episode, its set-up and oracle check
  // included, on a 4-core 2 GHz Xeon VM: a run of S seconds is
  // S / nominal_s episodes.
  double nominal_s;
};

// Why each workload exists, and why cmd_crowd runs on one thread while the
// Stripe workloads use two (half of the reference VM's 4 cores), is in
// README.md.
const WorkloadDef kWorkloads[] = {
    {"kf_rush", ScenarioKind::kCommuterRush, Method::kStripeKf, 20000, 60,
     false, 2, 5, 6.5},
    {"cmd_crowd", ScenarioKind::kFlashCrowd, Method::kCmd, 1000, 60, false, 1,
     31, 11.0},
    {"kf_churn_wire", ScenarioKind::kHeavyChurn, Method::kStripeKf, 10000, 60,
     true, 2, 5, 6.5},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

proxdet::ScenarioSpec SpecFor(const WorkloadDef& w, uint64_t seed) {
  proxdet::ScenarioSpec spec;
  spec.kind = w.scenario;
  spec.num_users = w.users;
  spec.epochs = w.epochs;
  spec.seed = seed;
  return spec;
}

// SimNet with 2 shards, batched downlink and compressed installs, no
// impairment: the transported run must be bit-exact with in-process.
proxdet::net::NetConfig WireConfig(uint64_t seed) {
  proxdet::net::NetConfig config;
  config.transport = proxdet::net::TransportKind::kSim;
  config.seed = seed ^ 0x5eedf00dULL;
  config.shards = 2;
  config.batch_downlink = true;
  config.compress_installs = true;
  return config;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Everything a run must reproduce exactly, whichever wrappers it carries.
struct Outputs {
  std::vector<AlertEvent> alerts;  // Sorted; the clients' stream on the wire.
  CommStats stats;                 // Wire bytes merged in on the wire.
  uint64_t rebuilds = 0;
  SpatialIndexStats index;
  NetRunStats net;

  bool SameAs(const Outputs& o) const {
    return alerts == o.alerts && stats == o.stats && rebuilds == o.rebuilds &&
           net.schedule_hash == o.net.schedule_hash;
  }
};

/// Per-layer totals of one traced Detector::Run, from its spans.
struct LayerTotals {
  std::array<int64_t, kLayerCount> total_ns{};
  std::array<int64_t, kLayerCount> self_ns{};
  std::array<uint64_t, kLayerCount> calls{};
  std::vector<double> build_us;  // Every BuildRegion duration.
};

LayerTotals Aggregate(const std::vector<Span>& spans) {
  LayerTotals t;
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    t.total_ns[s.layer] += dur;
    t.self_ns[s.layer] += dur - child_ns[i];
    t.calls[s.layer] += 1;
    if (s.layer == kBuildRegion) t.build_us.push_back(dur * 1e-3);
  }
  return t;
}

/// (missed + spurious) / oracle alerts, over sorted streams.
double AlertErrorRatio(const std::vector<AlertEvent>& got,
                       const std::vector<AlertEvent>& oracle) {
  if (got == oracle) return 0.0;
  std::vector<AlertEvent> missed, spurious;
  std::set_difference(oracle.begin(), oracle.end(), got.begin(), got.end(),
                      std::back_inserter(missed));
  std::set_difference(got.begin(), got.end(), oracle.begin(), oracle.end(),
                      std::back_inserter(spurious));
  const double errors = static_cast<double>(missed.size() + spurious.size());
  return errors / static_cast<double>(std::max<size_t>(1, oracle.size()));
}

struct Episode {
  double scenario_s = 0, training_s = 0, detector_s = 0, link_s = 0;
  double bootstrap_s = 0;
  double setup_s = 0;            // Build start -> epoch 1 start.
  double run_s = 0;              // Detector::Run wall.
  double steady_s = 0;           // Epochs 1..S-1.
  std::vector<double> epoch_ms;  // One sample per steady epoch.
  uint64_t heap_bytes = 0;       // Peak live heap above the starting level.
  Outputs out;
  double alert_error_ratio = 0;  // Against the oracle, when checked.
  LayerTotals layers;            // Traced episodes only.
  std::vector<Span> spans;       // Traced episodes only.
};

/// One episode. `run_epochs` < the workload's epochs stops the run early
/// (set-up builds run epochs 0 and 1 only); the scenario itself is always
/// the full-length one. `oracle` checks the alerts against the world's
/// ground truth after every timed window has closed.
Episode RunEpisode(const WorkloadDef& w, const proxdet::ScenarioSpec& spec,
                   bool traced, int run_epochs, bool oracle) {
  using proxdet::AllocProbe;
  Episode ep;
  SpanRecorder rec(traced);
  const uint64_t live_before = AllocProbe::LiveBytes();
  AllocProbe::ResetPeak();

  const int64_t t0 = NowNs();
  proxdet::Scenario scenario = proxdet::BuildScenario(spec);
  proxdet::World world(
      std::make_unique<TimedGenerator>(std::move(scenario.generator), &rec),
      std::move(scenario.graph), run_epochs);
  for (const proxdet::EdgeChurnEvent& ev : scenario.churn) {
    world.ScheduleUpdate({ev.epoch, ev.insert, ev.u, ev.w, ev.alert_radius});
  }
  const bool stripe = w.method == Method::kStripeKf;
  std::vector<proxdet::Trajectory> training;
  if (stripe) {
    training = proxdet::BuildScenarioTraining(spec, kTrainingUsers,
                                              kTrainingEpochs);
  }
  proxdet::WorkloadConfig wc;
  wc.num_users = spec.num_users;
  wc.epochs = run_epochs;
  wc.speed_steps = spec.speed_steps;
  wc.avg_friends = spec.avg_friends;
  wc.alert_radius_m = spec.alert_radius_m;
  wc.seed = spec.seed;
  wc.training_users = kTrainingUsers;
  wc.training_epochs = kTrainingEpochs;
  proxdet::Workload workload(wc, std::move(world), std::move(training), {});
  const int64_t t1 = NowNs();

  // The same assembly as proxdet::MakeDetector, with the wrappers spliced
  // in; the predictor wrapper goes on after calibration, which calls
  // Predict from the pool.
  std::unique_ptr<proxdet::RegionPolicy> policy;
  if (stripe) {
    std::unique_ptr<proxdet::Predictor> predictor =
        proxdet::MakeTrainedPredictor(proxdet::PredictorKind::kKalman,
                                      workload);
    const proxdet::StripePolicy::Options options =
        proxdet::CalibratedStripeOptions(predictor.get(), workload);
    if (traced) {
      predictor = std::make_unique<TimedPredictor>(std::move(predictor), &rec);
    }
    policy = std::make_unique<proxdet::StripePolicy>(std::move(predictor),
                                                     options);
  } else {
    proxdet::MobileCirclePolicy::Options options;
    options.self_tuning = true;
    policy = std::make_unique<proxdet::MobileCirclePolicy>(options);
  }
  const int64_t t2 = NowNs();
  if (traced) policy = std::make_unique<TimedPolicy>(std::move(policy), &rec);
  proxdet::RegionDetector detector(std::move(policy));
  const int64_t t3 = NowNs();

  std::unique_ptr<proxdet::net::TransportLink> link;
  std::unique_ptr<TimedLink> timed_link;
  if (w.wire) {
    link = std::make_unique<proxdet::net::TransportLink>(workload.world,
                                                         WireConfig(spec.seed));
    if (traced) {
      timed_link = std::make_unique<TimedLink>(link.get(), &rec);
      detector.set_link(timed_link.get());
    } else {
      detector.set_link(link.get());
    }
  }
  const int64_t t4 = NowNs();

  rec.BeginRun();
  detector.Run(workload.world);
  rec.EndRun();
  detector.set_link(nullptr);
  ep.heap_bytes = AllocProbe::PeakLiveBytes() - live_before;

  const std::vector<int64_t>& starts = rec.epoch_starts();
  if (starts.size() != static_cast<size_t>(run_epochs)) {
    std::fprintf(stderr, "perfbench: %zu epoch boundaries for %d epochs\n",
                 starts.size(), run_epochs);
    std::exit(3);
  }
  ep.scenario_s = Seconds(t1 - t0);
  ep.training_s = Seconds(t2 - t1);
  ep.detector_s = Seconds(t3 - t2);
  ep.link_s = Seconds(t4 - t3);
  ep.bootstrap_s = Seconds(starts[1] - t4);
  ep.setup_s = Seconds(starts[1] - t0);
  ep.run_s = Seconds(rec.run_end_ns() - rec.run_start_ns());
  ep.steady_s = Seconds(rec.run_end_ns() - starts[1]);
  for (size_t e = 1; e < starts.size(); ++e) {
    const int64_t end =
        e + 1 < starts.size() ? starts[e + 1] : rec.run_end_ns();
    ep.epoch_ms.push_back(static_cast<double>(end - starts[e]) * 1e-6);
  }

  ep.out.stats = detector.stats();
  ep.out.rebuilds = detector.rebuild_count();
  ep.out.index = detector.index_stats();
  if (link) {
    // Merged exactly as net::TransportedDetector::Run merges them.
    ep.out.net = link->Stats();
    ep.out.stats.bytes_up = ep.out.net.bytes_up;
    ep.out.stats.bytes_down = ep.out.net.bytes_down;
    ep.out.stats.bytes_xshard = ep.out.net.bytes_xshard;
    ep.out.stats.batch_saved_bytes = ep.out.net.batch_saved_bytes;
    ep.out.alerts = link->ClientAlerts();
    proxdet::SortAlerts(&ep.out.alerts);
  } else {
    ep.out.alerts = detector.SortedAlerts();
  }
  if (traced) {
    ep.layers = Aggregate(rec.spans());
    ep.spans = rec.spans();
  }
  if (oracle) {
    std::vector<AlertEvent> truth = workload.world.GroundTruthAlerts();
    proxdet::SortAlerts(&truth);
    ep.alert_error_ratio = AlertErrorRatio(ep.out.alerts, truth);
  }
  return ep;
}

/// The same workload through the library's own assembly path
/// (BuildScenarioWorkload + MakeDetector + TransportedDetector), with no
/// wrapper anywhere: the reference the self-test holds the wrappers to.
Outputs RunUnwrapped(const WorkloadDef& w, const proxdet::ScenarioSpec& spec) {
  proxdet::ScenarioWorkloadConfig config;
  config.scenario = spec;
  config.training_users = kTrainingUsers;
  config.training_epochs = kTrainingEpochs;
  const proxdet::Workload workload = proxdet::BuildScenarioWorkload(config);
  std::unique_ptr<proxdet::Detector> detector =
      proxdet::MakeDetector(w.method, workload);
  Outputs out;
  const proxdet::Detector* engine = detector.get();
  std::unique_ptr<proxdet::net::TransportedDetector> wire;
  if (w.wire) {
    wire = std::make_unique<proxdet::net::TransportedDetector>(
        std::move(detector), WireConfig(spec.seed));
    wire->Run(workload.world);
    engine = &wire->inner();
    out.net = wire->net_stats();
    out.stats = wire->stats();
    out.alerts = wire->SortedAlerts();
  } else {
    detector->Run(workload.world);
    out.stats = detector->stats();
    out.alerts = detector->SortedAlerts();
  }
  const auto& rd = dynamic_cast<const proxdet::RegionDetector&>(*engine);
  out.rebuilds = rd.rebuild_count();
  out.index = rd.index_stats();
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile of the ladder that leaves at least 10 of `n`
/// samples above it.
double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

/// Nearest-rank percentile; `*above` receives the samples ranked above it.
double Percentile(std::vector<double> v, double p, size_t* above) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  if (above != nullptr) *above = v.size() - rank;
  return v[rank - 1];
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered (name -> value, unit) metric list of one run.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) s += ", ";
      s += JsonString(rows_[i].name) + ": {\"value\": " + Num(rows_[i].value) +
           ", \"unit\": " + JsonString(rows_[i].unit) + "}";
    }
    return s + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

std::string MachineJson() {
  const bool ndebug =
#ifdef NDEBUG
      true;
#else
      false;
#endif
  const bool obs =
#ifdef PROXDET_OBS_DISABLED
      false;
#else
      true;
#endif
  std::string s = "{";
  s += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"cpu_model\": " + JsonString(CpuModel());
  s += ", \"simd_backend\": " +
       JsonString(proxdet::simd::BackendName(proxdet::simd::ActiveBackend()));
  s += std::string(", \"ndebug\": ") + (ndebug ? "true" : "false");
  s += ", \"pool_threads\": " +
       std::to_string(proxdet::ThreadPool::Global().thread_count());
  s += std::string(", \"obs\": ") + (obs ? "true" : "false");
  return s + "}";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id,parent,epoch,name,start_ns,end_ns\n");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%d,%d,%s,%lld,%lld\n", i, s.parent, s.epoch,
                 LayerName(s.layer),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  size_t users = 0;  // 0 = the workload's own size.
  int epochs = 0;
  std::string spans_path;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--users N] [--epochs S] "
               "[--spans FILE] | --selftest\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--users") {
      a.users = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--epochs") {
      a.epochs = std::atoi(v.c_str());
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  return a;
}

/// Scenario seed of episode `i` of a run: every episode draws a fresh
/// city from the run's seed, so a run averages over several inputs.
uint64_t EpisodeSeed(uint64_t run_seed, int i) {
  proxdet::StreamRng rng{run_seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<uint64_t>(i)};
  return rng.NextU64() >> 16;
}

template <typename F>
double MedianOf(const std::vector<Episode>& eps, F field) {
  std::vector<double> v;
  for (const Episode& ep : eps) v.push_back(field(ep));
  return Median(v);
}

template <typename F>
double MeanOf(const std::vector<Episode>& eps, F field) {
  double sum = 0;
  for (const Episode& ep : eps) sum += field(ep);
  return eps.empty() ? 0.0 : sum / eps.size();
}

int RunBenchmark(const Args& args) {
  const WorkloadDef* found = FindWorkload(args.workload);
  if (found == nullptr) Usage(("unknown workload " + args.workload).c_str());
  WorkloadDef w = *found;
  if (args.users > 0) w.users = args.users;
  if (args.epochs > 0) w.epochs = args.epochs;
  if (w.epochs < 3) Usage("--epochs must be at least 3");
  proxdet::ThreadPool::SetGlobalThreads(w.pool_threads);
  const bool traced_run = args.trace != 0;
  auto spec = [&](int i) { return SpecFor(w, EpisodeSeed(args.seed, i)); };

  // The episode count is a function of --seconds alone, never of how fast
  // this run happens to go, so the deterministic counts and the tail
  // percentile of a (seed, seconds) pair are the same on every machine.
  const int episodes = std::max<int>(
      kMinEpisodes, static_cast<int>(std::lround(args.seconds / w.nominal_s)));
  const int plain_n = traced_run ? std::max(1, (episodes + 1) / 2) : episodes;

  // Set-up, timed as the median of several builds after one warm-up.
  std::vector<Episode> setups;
  RunEpisode(w, spec(0), /*traced=*/false, /*run_epochs=*/2, /*oracle=*/false);
  for (int i = 0; i < w.setup_builds; ++i) {
    setups.push_back(RunEpisode(w, spec(i), false, 2, false));
  }
  // Untraced episodes, then (traced run) their traced twins on the same
  // inputs.
  std::vector<Episode> plain, traced;
  for (int i = 0; i < plain_n; ++i) {
    plain.push_back(RunEpisode(w, spec(i), false, w.epochs, /*oracle=*/true));
  }
  for (int i = 0; traced_run && i < plain_n; ++i) {
    traced.push_back(RunEpisode(w, spec(i), true, w.epochs, false));
  }

  // An untraced episode fails when its alerts differ from the oracle, a
  // traced one when it differs from its untraced twin in any output; either
  // fails when the wire reports a failure or an inexact codec.
  double alert_error_ratio = 0;
  bool traced_exact = true, net_failed = false, codec_exact = true;
  size_t failed = 0;
  for (size_t i = 0; i < plain.size() + traced.size(); ++i) {
    const bool is_plain = i < plain.size();
    const Episode& ep = is_plain ? plain[i] : traced[i - plain.size()];
    bool ok = ep.out.net.codec_exact && !ep.out.net.failed;
    if (is_plain) {
      alert_error_ratio = std::max(alert_error_ratio, ep.alert_error_ratio);
      ok &= ep.alert_error_ratio == 0;
    } else {
      const bool same = ep.out.SameAs(plain[i - plain.size()].out);
      traced_exact &= same;
      ok &= same;
    }
    net_failed |= ep.out.net.failed;
    codec_exact &= ep.out.net.codec_exact;
    failed += ok ? 0 : 1;
  }
  const bool correct = failed == 0;

  // Deterministic counts, summed over the untraced episodes.
  const double n = static_cast<double>(w.users);
  const double user_epochs = n * w.epochs * plain.size();
  auto total = [&](auto field) {
    double sum = 0;
    for (const Episode& ep : plain) sum += static_cast<double>(field(ep.out));
    return sum;
  };

  Metrics m;
  std::vector<double> epoch_ms;
  double steady_s = 0;
  for (const Episode& ep : plain) {
    epoch_ms.insert(epoch_ms.end(), ep.epoch_ms.begin(), ep.epoch_ms.end());
    steady_s += ep.steady_s;
  }
  const double tail_pct = TailPercentile(epoch_ms.size());
  size_t tail_above = 0;
  const double tail_ms = Percentile(epoch_ms, tail_pct, &tail_above);
  if (!traced_run) {
    m.Add("user_epochs_per_s", n * epoch_ms.size() / steady_s,
          "user-epochs/s");
    m.Add("epoch_ms_p50", Median(epoch_ms), "ms");
    m.Add("epoch_ms_tail", tail_ms, "ms");
    m.Add("msgs_per_user_epoch",
          total([](const Outputs& o) { return o.stats.TotalMessages(); }) /
              user_epochs,
          "msgs");
    m.Add("heap_bytes_per_user",
          MedianOf(plain, [](const Episode& e) {
            return static_cast<double>(e.heap_bytes);
          }) / n,
          "B/user");
    m.Add("setup_s", MedianOf(setups, [](const Episode& e) {
            return e.setup_s;
          }), "s");
  } else {
    // Layer times: seconds per episode, averaged over the traced episodes.
    auto layer_s = [&](Layer l) {
      return MeanOf(traced, [l](const Episode& e) {
        return Seconds(e.layers.total_ns[l]);
      });
    };
    auto layer_calls = [&](Layer l) {
      return MeanOf(traced, [l](const Episode& e) {
        return static_cast<double>(e.layers.calls[l]);
      });
    };
    std::vector<double> build_us;
    for (const Episode& ep : traced) {
      build_us.insert(build_us.end(), ep.layers.build_us.begin(),
                      ep.layers.build_us.end());
    }
    const double predict_calls = layer_calls(kPredict);
    m.Add("core.run_s", MeanOf(traced, [](const Episode& e) {
            return e.run_s;
          }), "s");
    m.Add("traj.next_epoch_s", layer_s(kNextEpoch), "s");
    m.Add("traj.next_epoch_calls", layer_calls(kNextEpoch), "count");
    m.Add("predict.predict_s", layer_s(kPredict), "s");
    m.Add("predict.calls", predict_calls, "count");
    m.Add("predict.us_per_call",
          predict_calls > 0 ? layer_s(kPredict) * 1e6 / predict_calls : 0.0,
          "us");
    m.Add("core.build_region_s", layer_s(kBuildRegion), "s");
    m.Add("core.build_region_self_s", MeanOf(traced, [](const Episode& e) {
            return Seconds(e.layers.self_ns[kBuildRegion]);
          }), "s");
    m.Add("core.build_region_calls", layer_calls(kBuildRegion), "count");
    m.Add("core.build_region_us_p50",
          build_us.empty() ? 0.0 : Percentile(build_us, 50, nullptr), "us");
    m.Add("core.build_region_us_tail",
          build_us.empty()
              ? 0.0
              : Percentile(build_us, TailPercentile(build_us.size()), nullptr),
          "us");
    m.Add("core.engine_self_s", MeanOf(traced, [](const Episode& e) {
            return Seconds(e.layers.self_ns[kRun] + e.layers.self_ns[kEpoch]);
          }), "s");
    m.Add("core.rebuilds_per_user_epoch",
          total([](const Outputs& o) { return o.rebuilds; }) / user_epochs,
          "count");
    m.Add("core.probes_per_user_epoch",
          total([](const Outputs& o) { return o.stats.probes; }) / user_epochs,
          "count");
    const double candidates =
        total([](const Outputs& o) { return o.index.candidates; });
    m.Add("core.index.candidates_per_user_epoch", candidates / user_epochs,
          "count");
    m.Add("core.index.cells_probed_per_user_epoch",
          total([](const Outputs& o) { return o.index.cells_probed; }) /
              user_epochs,
          "count");
    m.Add("core.pair.alerts_per_candidate",
          candidates > 0
              ? total([](const Outputs& o) { return o.alerts.size(); }) /
                    candidates
              : 0.0,
          "ratio");
    static const std::pair<const char*, Layer> kNet[] = {
        {"report", kReport},
        {"probe", kProbe},
        {"install_region", kInstallRegion},
        {"install_match", kInstallMatch},
        {"alert", kAlert},
        {"end_epoch", kEndEpoch}};
    for (const auto& [name, layer] : kNet) {
      m.Add(std::string("net.") + name + "_s", layer_s(layer), "s");
      m.Add(std::string("net.") + name + "_calls", layer_calls(layer),
            "count");
    }
    m.Add("net.wire_bytes_per_user_epoch",
          total([](const Outputs& o) { return o.stats.TotalBytes(); }) /
              user_epochs,
          "B");
    m.Add("net.frames_per_user_epoch",
          total([](const Outputs& o) {
            return o.net.frames_up + o.net.frames_down;
          }) / user_epochs,
          "count");
    m.Add("net.xshard_bytes_per_user_epoch",
          total([](const Outputs& o) { return o.net.bytes_xshard; }) /
              user_epochs,
          "B");
    m.Add("net.retransmits",
          total([](const Outputs& o) { return o.net.retransmits; }), "count");
    const double batch_frames =
        total([](const Outputs& o) { return o.net.batch_frames; });
    m.Add("net.batch_fill",
          batch_frames > 0
              ? total([](const Outputs& o) { return o.net.batch_messages; }) /
                    batch_frames
              : 0.0,
          "ratio");
    const double installs =
        total([](const Outputs& o) { return o.stats.region_installs; });
    m.Add("net.compressed_install_ratio",
          w.wire && installs > 0
              ? total([](const Outputs& o) {
                  return o.net.compressed_installs;
                }) / installs
              : 0.0,
          "ratio");
    m.Add("setup.scenario_s",
          MedianOf(setups, [](const Episode& e) { return e.scenario_s; }),
          "s");
    m.Add("setup.training_s",
          MedianOf(setups, [](const Episode& e) { return e.training_s; }),
          "s");
    m.Add("setup.detector_s",
          MedianOf(setups, [](const Episode& e) { return e.detector_s; }),
          "s");
    m.Add("setup.link_s",
          MedianOf(setups, [](const Episode& e) { return e.link_s; }), "s");
    m.Add("setup.bootstrap_s",
          MedianOf(setups, [](const Episode& e) { return e.bootstrap_s; }),
          "s");
    m.Add("trace_overhead_ratio",
          MeanOf(traced, [](const Episode& e) { return e.run_s; }) /
              MeanOf(plain, [](const Episode& e) { return e.run_s; }),
          "ratio");
    if (!args.spans_path.empty()) {
      WriteSpans(args.spans_path, traced.back().spans);
    }
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"users\": %zu, "
      "\"epochs\": %d, \"episodes\": %zu, \"traced_episodes\": %zu, "
      "\"setup_builds\": %zu, \"attempted\": %zu, \"failed\": %zu, "
      "\"machine\": %s, "
      "\"checks\": {\"correct\": %s, \"alert_error_ratio\": %s, "
      "\"traced_exact\": %s, \"net_failed\": %s, \"codec_exact\": %s}, "
      "\"tail\": {\"percentile\": %s, \"samples\": %zu, \"above\": %zu}, "
      "\"metrics\": %s}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, w.users, w.epochs, plain.size(), traced.size(),
      setups.size(), plain.size() + traced.size(), failed,
      MachineJson().c_str(), correct ? "true" : "false",
      Num(alert_error_ratio).c_str(), traced_exact ? "true" : "false",
      net_failed ? "true" : "false", codec_exact ? "true" : "false",
      Num(tail_pct).c_str(), epoch_ms.size(), tail_above, m.Json().c_str());
  return correct ? 0 : 1;
}

/// Wrapper transparency and tail-support checks on small instances of
/// every workload. Prints one line per check; returns non-zero on failure.
int SelfTest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (WorkloadDef w : kWorkloads) {
    proxdet::ThreadPool::SetGlobalThreads(w.pool_threads);
    w.users = w.method == Method::kCmd ? 300 : 1500;
    w.epochs = 30;
    const proxdet::ScenarioSpec spec = SpecFor(w, /*seed=*/7);
    const Outputs reference = RunUnwrapped(w, spec);
    const Episode plain = RunEpisode(w, spec, false, w.epochs, true);
    const Episode traced = RunEpisode(w, spec, true, w.epochs, false);
    const std::string tag = std::string(w.name) + ": ";
    check(plain.alert_error_ratio == 0, tag + "alerts match the oracle");
    check(plain.out.SameAs(reference),
          tag + "generator wrapper is transparent");
    check(traced.out.SameAs(reference), tag + "all wrappers are transparent");
    check(traced.layers.calls[kNextEpoch] == static_cast<uint64_t>(w.epochs),
          tag + "one NextEpoch span per epoch");
    check(w.method != Method::kStripeKf ||
              (traced.layers.calls[kPredict] > 0 &&
               traced.layers.calls[kBuildRegion] == reference.rebuilds),
          tag + "one BuildRegion span per rebuild, predictor spans present");
    check(!w.wire || traced.layers.calls[kEndEpoch] ==
                         static_cast<uint64_t>(w.epochs),
          tag + "one EndEpoch span per epoch on the wire");
    // Self times partition the run: they sum to Detector::Run wall time.
    int64_t self_sum = 0;
    for (int64_t s : traced.layers.self_ns) self_sum += s;
    check(self_sum == traced.layers.total_ns[kRun],
          tag + "layer self times sum to Detector::Run wall time");
  }
  for (const WorkloadDef& w : kWorkloads) {
    const size_t n = static_cast<size_t>(kMinEpisodes) * (w.epochs - 1);
    std::vector<double> samples(n);
    for (size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(i);
    size_t above = 0;
    Percentile(samples, TailPercentile(n), &above);
    check(above >= 10, std::string(w.name) + ": " + std::to_string(n) +
                           " epoch samples leave >= 10 above the p" +
                           Num(TailPercentile(n)) + " tail");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.selftest) return perfbench::SelfTest();
  if (args.workload.empty()) perfbench::Usage("--workload is required");
  return perfbench::RunBenchmark(args);
}
