#include "road/road_network.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace proxdet {

NodeId RoadNetwork::AddNode(const Vec2& position) {
  if (nodes_.empty()) {
    extent_ = BBox{position, position};
  } else {
    extent_.Extend(position);
  }
  nodes_.push_back(position);
  adjacency_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void RoadNetwork::AddBidirectionalEdge(NodeId a, NodeId b,
                                       RoadClass road_class) {
  const double len = Distance(nodes_[a], nodes_[b]);
  adjacency_[a].push_back({b, len, road_class});
  adjacency_[b].push_back({a, len, road_class});
}

size_t RoadNetwork::edge_count() const {
  size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

RoadNetwork RoadNetwork::MakeCityGrid(int rows, int cols, double spacing,
                                      int arterial_every, double jitter,
                                      Rng* rng) {
  RoadNetwork net;
  std::vector<NodeId> ids(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Vec2 p{c * spacing + rng->Uniform(-jitter, jitter),
                   r * spacing + rng->Uniform(-jitter, jitter)};
      ids[static_cast<size_t>(r) * cols + c] = net.AddNode(p);
    }
  }
  auto id_at = [&ids, cols](int r, int c) {
    return ids[static_cast<size_t>(r) * cols + c];
  };
  auto klass = [arterial_every](int index) {
    return (arterial_every > 0 && index % arterial_every == 0)
               ? RoadClass::kArterial
               : RoadClass::kLocal;
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.AddBidirectionalEdge(id_at(r, c), id_at(r, c + 1), klass(r));
      }
      if (r + 1 < rows) {
        net.AddBidirectionalEdge(id_at(r, c), id_at(r + 1, c), klass(c));
      }
    }
  }
  return net;
}

RoadNetwork RoadNetwork::MakeHighwaySkeleton(const BBox& extent, int corridors,
                                             int points_per_corridor,
                                             Rng* rng) {
  RoadNetwork net;
  std::vector<std::vector<NodeId>> corridor_nodes;
  for (int c = 0; c < corridors; ++c) {
    // Each corridor runs roughly across the extent with gentle waviness:
    // trucks on highways drive long near-straight stretches.
    const bool horizontal = rng->NextBool(0.5);
    std::vector<NodeId> nodes;
    const double fixed = horizontal
                             ? rng->Uniform(extent.lo.y, extent.hi.y)
                             : rng->Uniform(extent.lo.x, extent.hi.x);
    double wander = 0.0;
    double drift = 0.0;  // Smoothed curvature: long, gentle highway arcs.
    for (int i = 0; i < points_per_corridor; ++i) {
      const double t = static_cast<double>(i) / (points_per_corridor - 1);
      drift = 0.97 * drift + rng->Gaussian(0.0, extent.Width() * 0.0001);
      wander = 0.98 * (wander + drift);
      Vec2 p;
      if (horizontal) {
        p = {extent.lo.x + t * extent.Width(), fixed + wander};
      } else {
        p = {fixed + wander, extent.lo.y + t * extent.Height()};
      }
      nodes.push_back(net.AddNode(extent.Clamp(p)));
      if (i > 0) {
        net.AddBidirectionalEdge(nodes[i - 1], nodes[i], RoadClass::kHighway);
      }
    }
    corridor_nodes.push_back(std::move(nodes));
  }
  // Interchanges: link each pair of corridors at their closest node pair so
  // the network is connected and trips can switch highways.
  for (size_t a = 0; a < corridor_nodes.size(); ++a) {
    for (size_t b = a + 1; b < corridor_nodes.size(); ++b) {
      double best = std::numeric_limits<double>::infinity();
      NodeId na = -1, nb = -1;
      for (NodeId ia : corridor_nodes[a]) {
        for (NodeId ib : corridor_nodes[b]) {
          const double d = Distance(net.node_position(ia), net.node_position(ib));
          if (d < best) {
            best = d;
            na = ia;
            nb = ib;
          }
        }
      }
      if (na >= 0) net.AddBidirectionalEdge(na, nb, RoadClass::kArterial);
    }
  }
  return net;
}

NodeId RoadNetwork::NearestNode(const Vec2& p) const {
  NodeId best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const double d = SquaredDistance(nodes_[i], p);
    if (d < best_d) {
      best_d = d;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

NodeId RoadNetwork::RandomNode(Rng* rng) const {
  return static_cast<NodeId>(rng->NextIndex(nodes_.size()));
}

namespace {

// Route-choice weights: drivers prefer arterials and highways even when
// slightly longer, which concentrates trips on the major (straighter)
// corridors — as real taxi/truck GPS traces do.
double RouteCostFactor(RoadClass road_class) {
  switch (road_class) {
    case RoadClass::kLocal:
      return 1.6;
    case RoadClass::kArterial:
      return 1.0;
    case RoadClass::kHighway:
      return 0.8;
  }
  return 1.0;
}

}  // namespace

std::vector<NodeId> RoadNetwork::ShortestPath(NodeId from, NodeId to) const {
  const size_t n = nodes_.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<NodeId> prev(n, -1);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == to) break;
    for (const RoadEdge& e : adjacency_[u]) {
      const double nd = d + e.length * RouteCostFactor(e.road_class);
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        prev[e.to] = u;
        heap.push({nd, e.to});
      }
    }
  }
  if (dist[to] == std::numeric_limits<double>::infinity()) return {};
  std::vector<NodeId> path;
  for (NodeId v = to; v != -1; v = prev[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

RoadClass RoadNetwork::EdgeClass(NodeId from, NodeId to) const {
  for (const RoadEdge& e : adjacency_[from]) {
    if (e.to == to) return e.road_class;
  }
  return RoadClass::kLocal;
}

}  // namespace proxdet
