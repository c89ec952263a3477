#ifndef PROXDET_CORE_DETECTOR_H_
#define PROXDET_CORE_DETECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/comm_stats.h"
#include "core/events.h"
#include "core/world.h"

namespace proxdet {

class ClientLink;

/// Deterministic pair-check work counters of one Run (a pure function of
/// the workload seed, independent of thread count). The name predates the
/// removal of the grid index; perfbench reads the struct by it.
struct SpatialIndexStats {
  /// Region-pair predicates the per-epoch edge scan evaluated.
  uint64_t candidates = 0;
  /// Always 0: the edge scan probes no spatial cells (there is no index).
  uint64_t cells_probed = 0;
};

/// A continuous proximity detection strategy. `Run` simulates the full
/// client-server protocol over the world and records every message in
/// `stats()`. Correctness contract: `SortedAlerts()` must equal
/// `world.GroundTruthAlerts()` for every world — safe regions trade
/// communication for bookkeeping, never for missed or spurious alerts.
class Detector {
 public:
  /// Wall-clock seconds spent in each server-side phase of the last Run.
  /// Pure timing — deliberately outside CommStats so the determinism
  /// contract (CommStats equality across thread counts) never touches it.
  /// Phases a method does not run stay zero (Naive only has pair_check;
  /// Stripe+KF never runs pair_check).
  struct PhaseTimes {
    double match_region = 0.0;  // Match-region containment scan + commits.
    double exit_check = 0.0;    // Safe-region exit scan + commits.
    double pair_check = 0.0;    // Per-epoch pair check (Naive: full scan).
    double rebuild = 0.0;       // Resolve/rebuild queue (probes + builds).
  };

  virtual ~Detector() = default;

  virtual std::string name() const = 0;
  virtual void Run(const World& world) = 0;

  const CommStats& stats() const { return stats_; }
  const PhaseTimes& phase_times() const { return phase_times_; }
  std::vector<AlertEvent> SortedAlerts() const {
    std::vector<AlertEvent> out = alerts_;
    SortAlerts(&out);
    return out;
  }

  /// Routes every protocol message of the next Run through `link` (the
  /// transported mode, src/net/). nullptr restores the in-process fast
  /// path. Not owned; must outlive the Run it is installed for.
  void set_link(ClientLink* link) { link_ = link; }
  ClientLink* link() const { return link_; }

 protected:
  CommStats stats_;
  PhaseTimes phase_times_;
  std::vector<AlertEvent> alerts_;
  ClientLink* link_ = nullptr;
};

/// The Naive baseline (Sec. VI-C): every user reports every epoch, the
/// server recomputes all pair distances. No probing, maximal reporting.
///
/// The per-epoch pair check is one exhaustive O(edges) scan: every interest
/// edge's distance compare, batched through the SIMD kernels. The interest
/// graph is sparse (F << N), so the edge list is the natural candidate set
/// (DESIGN.md §10 on why there is no spatial index).
class NaiveDetector : public Detector {
 public:
  std::string name() const override { return "Naive"; }
  void Run(const World& world) override;
};

}  // namespace proxdet

#endif  // PROXDET_CORE_DETECTOR_H_
