#include "road/road_network.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace proxdet {
namespace {

TEST(RoadNetworkTest, ManualGraphShortestPath) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({10, 0});
  const NodeId c = net.AddNode({10, 10});
  const NodeId d = net.AddNode({0, 10});
  net.AddBidirectionalEdge(a, b, RoadClass::kLocal);
  net.AddBidirectionalEdge(b, c, RoadClass::kLocal);
  net.AddBidirectionalEdge(c, d, RoadClass::kLocal);
  net.AddBidirectionalEdge(a, d, RoadClass::kLocal);
  const std::vector<NodeId> path = net.ShortestPath(a, c);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), a);
  EXPECT_EQ(path.back(), c);
}

TEST(RoadNetworkTest, ShortestPathPrefersShorterGeometry) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId detour = net.AddNode({0, 50});
  const NodeId b = net.AddNode({10, 0});
  net.AddBidirectionalEdge(a, detour, RoadClass::kLocal);
  net.AddBidirectionalEdge(detour, b, RoadClass::kLocal);
  net.AddBidirectionalEdge(a, b, RoadClass::kLocal);
  const std::vector<NodeId> path = net.ShortestPath(a, b);
  ASSERT_EQ(path.size(), 2u);  // Direct edge wins.
}

TEST(RoadNetworkTest, UnreachableReturnsEmpty) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({10, 0});
  EXPECT_TRUE(net.ShortestPath(a, b).empty());
}

TEST(RoadNetworkTest, PathToSelf) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const std::vector<NodeId> path = net.ShortestPath(a, a);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], a);
}

TEST(RoadNetworkTest, CityGridIsConnected) {
  Rng rng(1);
  const RoadNetwork net = RoadNetwork::MakeCityGrid(8, 9, 100.0, 3, 5.0, &rng);
  EXPECT_EQ(net.node_count(), 72u);
  // Grid edges: rows*(cols-1) + (rows-1)*cols.
  EXPECT_EQ(net.edge_count(), 8u * 8 + 7 * 9);
  // Every pair sampled must be reachable.
  Rng pick(2);
  for (int i = 0; i < 20; ++i) {
    const NodeId a = net.RandomNode(&pick);
    const NodeId b = net.RandomNode(&pick);
    EXPECT_FALSE(net.ShortestPath(a, b).empty());
  }
}

TEST(RoadNetworkTest, CityGridHasArterials) {
  Rng rng(1);
  const RoadNetwork net = RoadNetwork::MakeCityGrid(6, 6, 100.0, 2, 0.0, &rng);
  int arterials = 0;
  for (size_t n = 0; n < net.node_count(); ++n) {
    for (const RoadEdge& e : net.edges_from(static_cast<NodeId>(n))) {
      if (e.road_class == RoadClass::kArterial) ++arterials;
    }
  }
  EXPECT_GT(arterials, 0);
}

TEST(RoadNetworkTest, HighwaySkeletonConnected) {
  Rng rng(3);
  const BBox extent{{0, 0}, {50000, 50000}};
  const RoadNetwork net = RoadNetwork::MakeHighwaySkeleton(extent, 5, 30, &rng);
  EXPECT_EQ(net.node_count(), 150u);
  Rng pick(4);
  for (int i = 0; i < 15; ++i) {
    const NodeId a = net.RandomNode(&pick);
    const NodeId b = net.RandomNode(&pick);
    EXPECT_FALSE(net.ShortestPath(a, b).empty());
  }
}

TEST(RoadNetworkTest, HighwayEdgesDominateSkeleton) {
  Rng rng(5);
  const BBox extent{{0, 0}, {50000, 50000}};
  const RoadNetwork net = RoadNetwork::MakeHighwaySkeleton(extent, 4, 25, &rng);
  int highway = 0;
  int other = 0;
  for (size_t n = 0; n < net.node_count(); ++n) {
    for (const RoadEdge& e : net.edges_from(static_cast<NodeId>(n))) {
      (e.road_class == RoadClass::kHighway ? highway : other) += 1;
    }
  }
  EXPECT_GT(highway, other);
}

TEST(RoadNetworkTest, NearestNode) {
  RoadNetwork net;
  net.AddNode({0, 0});
  const NodeId b = net.AddNode({10, 0});
  net.AddNode({20, 0});
  EXPECT_EQ(net.NearestNode({11, 1}), b);
}

TEST(RoadNetworkTest, PathGeometryMatchesNodes) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({10, 0});
  net.AddBidirectionalEdge(a, b, RoadClass::kHighway);
  EXPECT_EQ(net.ShortestPath(a, b), (std::vector<NodeId>{a, b}));
  EXPECT_EQ(net.EdgeClass(a, b), RoadClass::kHighway);
  EXPECT_EQ(net.EdgeClass(b, a), RoadClass::kHighway);
}

TEST(RoadNetworkTest, ExtentCoversAllNodes) {
  Rng rng(7);
  const RoadNetwork net = RoadNetwork::MakeCityGrid(5, 5, 200.0, 0, 10.0, &rng);
  for (size_t n = 0; n < net.node_count(); ++n) {
    EXPECT_TRUE(net.extent().Contains(net.node_position(static_cast<NodeId>(n))));
  }
}

}  // namespace
}  // namespace proxdet
