#ifndef PROXDET_GRAPH_INTEREST_GRAPH_H_
#define PROXDET_GRAPH_INTEREST_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace proxdet {

using UserId = int32_t;

/// An undirected "friend" edge with its alert radius r_{u,w} (Sec. II).
struct FriendEdge {
  UserId other = -1;
  double alert_radius = 0.0;
};

/// The interest graph G = (V, E): which user pairs should be alerted when
/// they come within their alert radius. Supports the dynamic edge
/// insertion/deletion workload of Sec. VI-E.
class InterestGraph {
 public:
  InterestGraph() = default;
  explicit InterestGraph(size_t user_count);

  /// Random graph with an average of `avg_friends` friends per user, every
  /// edge carrying `alert_radius` = min of the two endpoints' preferred
  /// radii drawn uniformly from [radius_lo, radius_hi]. Mirrors the
  /// synthetic interest graphs of [19] used by the paper.
  static InterestGraph Random(size_t user_count, double avg_friends,
                              double radius_lo, double radius_hi, Rng* rng);

  size_t user_count() const { return adjacency_.size(); }
  size_t edge_count() const { return edge_count_; }
  double AverageDegree() const;

  const std::vector<FriendEdge>& FriendsOf(UserId u) const {
    return adjacency_[u];
  }

  bool HasEdge(UserId u, UserId w) const;

  /// Alert radius of the (u, w) edge; 0 when absent.
  double AlertRadius(UserId u, UserId w) const;

  /// Adds an undirected edge; no-op (returns false) when it already exists
  /// or u == w.
  bool AddEdge(UserId u, UserId w, double alert_radius);

  /// Removes the edge; returns false when absent.
  bool RemoveEdge(UserId u, UserId w);

  /// All edges as (u, w, r) with u < w; ordering is deterministic.
  struct Edge {
    UserId u;
    UserId w;
    double alert_radius;
  };
  std::vector<Edge> Edges() const;

  /// The per-user preferred radius r_u used by Random(); 0 if not built via
  /// Random(). Exposed for reporting.
  double PreferredRadius(UserId u) const;

 private:
  std::vector<std::vector<FriendEdge>> adjacency_;
  std::vector<double> preferred_radius_;
  size_t edge_count_ = 0;
};

}  // namespace proxdet

#endif  // PROXDET_GRAPH_INTEREST_GRAPH_H_
