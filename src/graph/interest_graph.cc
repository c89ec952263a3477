#include "graph/interest_graph.h"

#include <algorithm>

namespace proxdet {

InterestGraph::InterestGraph(size_t user_count)
    : adjacency_(user_count), preferred_radius_(user_count, 0.0) {}

InterestGraph InterestGraph::Random(size_t user_count, double avg_friends,
                                    double radius_lo, double radius_hi,
                                    Rng* rng) {
  InterestGraph g(user_count);
  for (size_t u = 0; u < user_count; ++u) {
    g.preferred_radius_[u] = rng->Uniform(radius_lo, radius_hi);
  }
  if (user_count < 2) return g;
  // Average degree F means F*N/2 edges.
  const size_t target_edges = static_cast<size_t>(
      avg_friends * static_cast<double>(user_count) / 2.0 + 0.5);
  size_t added = 0;
  size_t attempts = 0;
  const size_t max_attempts = target_edges * 20 + 100;
  while (added < target_edges && attempts < max_attempts) {
    ++attempts;
    const UserId u = static_cast<UserId>(rng->NextIndex(user_count));
    const UserId w = static_cast<UserId>(rng->NextIndex(user_count));
    if (u == w) continue;
    const double r =
        std::min(g.preferred_radius_[u], g.preferred_radius_[w]);
    if (g.AddEdge(u, w, r)) ++added;
  }
  return g;
}

double InterestGraph::AverageDegree() const {
  if (adjacency_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edge_count_) /
         static_cast<double>(adjacency_.size());
}

bool InterestGraph::HasEdge(UserId u, UserId w) const {
  for (const FriendEdge& e : adjacency_[u]) {
    if (e.other == w) return true;
  }
  return false;
}

double InterestGraph::AlertRadius(UserId u, UserId w) const {
  for (const FriendEdge& e : adjacency_[u]) {
    if (e.other == w) return e.alert_radius;
  }
  return 0.0;
}

bool InterestGraph::AddEdge(UserId u, UserId w, double alert_radius) {
  if (u == w || u < 0 || w < 0) return false;
  if (static_cast<size_t>(u) >= adjacency_.size() ||
      static_cast<size_t>(w) >= adjacency_.size()) {
    return false;
  }
  if (HasEdge(u, w)) return false;
  adjacency_[u].push_back({w, alert_radius});
  adjacency_[w].push_back({u, alert_radius});
  ++edge_count_;
  return true;
}

bool InterestGraph::RemoveEdge(UserId u, UserId w) {
  auto erase_from = [](std::vector<FriendEdge>& adj, UserId other) {
    for (size_t i = 0; i < adj.size(); ++i) {
      if (adj[i].other == other) {
        adj[i] = adj.back();
        adj.pop_back();
        return true;
      }
    }
    return false;
  };
  if (!erase_from(adjacency_[u], w)) return false;
  erase_from(adjacency_[w], u);
  --edge_count_;
  return true;
}

std::vector<InterestGraph::Edge> InterestGraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (size_t u = 0; u < adjacency_.size(); ++u) {
    for (const FriendEdge& e : adjacency_[u]) {
      if (e.other > static_cast<UserId>(u)) {
        out.push_back({static_cast<UserId>(u), e.other, e.alert_radius});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.w < b.w;
  });
  return out;
}

double InterestGraph::PreferredRadius(UserId u) const {
  return preferred_radius_[u];
}

}  // namespace proxdet
