// Differential suite for BuildDualAdjacency (network/road_graph.cc).
//
// The oracle is the dual-graph builder as it stood before rows were built
// straight into CSR: one (u, v) pair per segment pair at every
// intersection, a global sort + unique over all pairs, then
// CsrGraph::FromEdges. It lives here only. Both must produce the same CSR
// bytes (offsets, neighbors, weights) on the dataset presets, on seeded
// random networks, and on hand-made networks with two-way pairs, parallel
// segments, isolated intersections and a high-degree hub.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

CsrGraph OracleDualAdjacency(const RoadNetwork& network) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < network.num_intersections(); ++i) {
    const std::vector<int>& inc = network.SegmentsAt(i);
    for (size_t a = 0; a < inc.size(); ++a) {
      for (size_t b = a + 1; b < inc.size(); ++b) {
        int u = inc[a];
        int v = inc[b];
        if (u > v) std::swap(u, v);
        if (u != v) pairs.emplace_back(u, v);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& [u, v] : pairs) edges.push_back({u, v, 1.0});
  return CsrGraph::FromEdges(network.num_segments(), edges).value();
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectMatchesOracle(const RoadNetwork& network, const std::string& what) {
  SCOPED_TRACE(what);
  const CsrGraph built = BuildDualAdjacency(network);
  const CsrGraph oracle = OracleDualAdjacency(network);
  EXPECT_EQ(built.num_nodes(), oracle.num_nodes());
  EXPECT_TRUE(SameBytes(built.offsets(), oracle.offsets()));
  EXPECT_TRUE(SameBytes(built.neighbors(), oracle.neighbors()));
  EXPECT_TRUE(SameBytes(built.weights(), oracle.weights()));
  EXPECT_TRUE(built.Validate().ok()) << built.Validate().ToString();
}

RoadNetwork MakeNetwork(int num_intersections,
                        const std::vector<std::pair<int, int>>& segments) {
  std::vector<Intersection> intersections(num_intersections);
  for (int i = 0; i < num_intersections; ++i) {
    intersections[i].position = {static_cast<double>(i), 0.0};
  }
  std::vector<RoadSegment> list;
  for (const auto& [from, to] : segments) {
    RoadSegment s;
    s.from = from;
    s.to = to;
    s.length = 10.0;
    list.push_back(s);
  }
  return RoadNetwork::Create(std::move(intersections), std::move(list))
      .value();
}

TEST(DualAdjacency, MatchesOracleOnPresets) {
  const std::pair<DatasetPreset, const char*> presets[] = {
      {DatasetPreset::kD1, "D1"},
      {DatasetPreset::kM1, "M1"},
      {DatasetPreset::kM2, "M2"},
      {DatasetPreset::kM3, "M3"}};
  for (const auto& [preset, name] : presets) {
    ExpectMatchesOracle(GenerateDataset(preset, 17).value(), name);
  }
}

TEST(DualAdjacency, TwoWayPairs) {
  // A path 0-1-2-3 of two-way roads: each direction pair shares both
  // endpoints, so the pair (s, s^1) appears at two intersections.
  RoadNetwork net =
      MakeNetwork(4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}});
  ExpectMatchesOracle(net, "two-way path");
  const CsrGraph dual = BuildDualAdjacency(net);
  EXPECT_EQ(dual.Degree(0), 3);  // its twin and both segments of 1-2
  EXPECT_TRUE(dual.HasEdge(0, 1));
  EXPECT_FALSE(dual.HasEdge(0, 4));
}

TEST(DualAdjacency, SelfLoopSegmentsNeverReachTheDual) {
  // RoadNetwork::Create refuses a segment with from == to, so no dual graph
  // ever holds a self-loop row.
  std::vector<Intersection> intersections(2);
  std::vector<RoadSegment> segments(2);
  segments[0] = {0, 1, 10.0, 0.0};
  segments[1] = {1, 1, 10.0, 0.0};
  EXPECT_FALSE(
      RoadNetwork::Create(std::move(intersections), std::move(segments)).ok());
}

TEST(DualAdjacency, SegmentsSharingBothEndpoints) {
  // Three parallel segments between 0 and 1 (two one way, one back) plus a
  // spur: every parallel pair meets at both ends.
  ExpectMatchesOracle(MakeNetwork(3, {{0, 1}, {0, 1}, {1, 0}, {1, 2}}),
                      "parallel segments");
}

TEST(DualAdjacency, IsolatedIntersections) {
  ExpectMatchesOracle(MakeNetwork(6, {{1, 2}, {2, 4}}), "isolated 0, 3, 5");
  ExpectMatchesOracle(MakeNetwork(3, {}), "no segments");
}

TEST(DualAdjacency, HighDegreeHub) {
  // 60 two-way spokes into one hub: the 120 segments form one clique, and
  // the spokes' outer ends add nothing but the twin.
  std::vector<std::pair<int, int>> spokes;
  for (int leaf = 1; leaf <= 60; ++leaf) {
    spokes.push_back({0, leaf});
    spokes.push_back({leaf, 0});
  }
  RoadNetwork net = MakeNetwork(61, spokes);
  ExpectMatchesOracle(net, "hub");
  const CsrGraph dual = BuildDualAdjacency(net);
  for (int s = 0; s < dual.num_nodes(); ++s) EXPECT_EQ(dual.Degree(s), 119);
}

TEST(DualAdjacency, SeededRandomNetworks) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int intersections = static_cast<int>(rng.NextInt(2, 60));
    const int num_segments = static_cast<int>(rng.NextInt(0, 150));
    std::vector<std::pair<int, int>> segments;
    for (int i = 0; i < num_segments; ++i) {
      const int from = static_cast<int>(rng.NextInt(0, intersections - 1));
      int to = static_cast<int>(rng.NextInt(0, intersections - 2));
      if (to >= from) ++to;  // no self-loops
      segments.push_back({from, to});
      if (rng.NextDouble() < 0.4) segments.push_back({to, from});
    }
    ExpectMatchesOracle(MakeNetwork(intersections, segments),
                        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace roadpart
