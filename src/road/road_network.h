#ifndef PROXDET_ROAD_ROAD_NETWORK_H_
#define PROXDET_ROAD_ROAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/bbox.h"
#include "geom/vec2.h"

namespace proxdet {

/// Road classes drive the speed profile of trips routed over the network.
enum class RoadClass : uint8_t {
  kLocal,     // City streets: slow, frequent turns.
  kArterial,  // Major city roads.
  kHighway,   // Inter-city highways: fast, straight.
};

/// Node/edge identifiers into the network's internal arrays.
using NodeId = int32_t;

/// A directed half-edge of the road graph.
struct RoadEdge {
  NodeId to = -1;
  double length = 0.0;  // meters
  RoadClass road_class = RoadClass::kLocal;
};

/// In-memory road graph with Dijkstra routing. Serves as the motion
/// substrate behind the synthetic datasets (DESIGN.md §2.1): instead of
/// replaying proprietary GPS logs we route trips over city grids and
/// highway skeletons, which reproduces the turn/speed structure the
/// prediction models key on.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  /// City grid: `rows` x `cols` intersections spaced `spacing` meters apart,
  /// with a slight per-node jitter so streets are not perfectly axis
  /// aligned. `arterial_every` marks every k-th row/column as arterial.
  static RoadNetwork MakeCityGrid(int rows, int cols, double spacing,
                                  int arterial_every, double jitter,
                                  Rng* rng);

  /// Highway skeleton: `corridors` long multi-segment polylines crossing the
  /// given extent, cross-linked at interchanges, plus sparse local ramps.
  static RoadNetwork MakeHighwaySkeleton(const BBox& extent, int corridors,
                                         int points_per_corridor, Rng* rng);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const;
  const Vec2& node_position(NodeId id) const { return nodes_[id]; }
  const std::vector<RoadEdge>& edges_from(NodeId id) const {
    return adjacency_[id];
  }
  const BBox& extent() const { return extent_; }

  /// Node closest to p (linear scan; networks here are small).
  NodeId NearestNode(const Vec2& p) const;

  /// Uniformly random node.
  NodeId RandomNode(Rng* rng) const;

  /// Shortest path by length from `from` to `to`. Returns an empty vector
  /// when unreachable; otherwise the node sequence including both ends.
  std::vector<NodeId> ShortestPath(NodeId from, NodeId to) const;

  /// Road class of the edge from `from` to `to` (kLocal when absent).
  RoadClass EdgeClass(NodeId from, NodeId to) const;

  /// Adds an undirected edge; used by the builders and by tests.
  void AddBidirectionalEdge(NodeId a, NodeId b, RoadClass road_class);

  /// Adds a node and returns its id.
  NodeId AddNode(const Vec2& position);

 private:
  std::vector<Vec2> nodes_;
  std::vector<std::vector<RoadEdge>> adjacency_;
  BBox extent_{{0, 0}, {0, 0}};
};

}  // namespace proxdet

#endif  // PROXDET_ROAD_ROAD_NETWORK_H_
