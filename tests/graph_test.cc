#include <gtest/gtest.h>

#include <algorithm>

#include "graph/connected_components.h"
#include "graph/csr_graph.h"
#include "graph/graph_algos.h"

namespace roadpart {
namespace {

CsrGraph Path(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1.0});
  return CsrGraph::FromEdges(n, edges).value();
}

TEST(CsrGraphTest, BasicConstruction) {
  auto g = CsrGraph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 0.5}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 4);
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_EQ(g->Degree(1), 2);
  EXPECT_TRUE(g->HasEdge(1, 0));
  EXPECT_FALSE(g->HasEdge(0, 3));
  EXPECT_DOUBLE_EQ(g->EdgeWeight(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 3), 0.0);
}

TEST(CsrGraphTest, SelfLoopsDropped) {
  auto g = CsrGraph::FromEdges(2, {{0, 0, 1.0}, {0, 1, 1.0}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_EQ(g->Degree(0), 1);
}

TEST(CsrGraphTest, ParallelEdgesMerged) {
  auto g = CsrGraph::FromEdges(2, {{0, 1, 1.0}, {1, 0, 2.0}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_DOUBLE_EQ(g->EdgeWeight(0, 1), 3.0);
}

TEST(CsrGraphTest, OutOfRangeRejected) {
  EXPECT_FALSE(CsrGraph::FromEdges(2, {{0, 2, 1.0}}).ok());
}

TEST(CsrGraphTest, NeighborsSorted) {
  auto g = CsrGraph::FromEdges(5, {{2, 4, 1.0}, {2, 0, 1.0}, {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g->Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(CsrGraphTest, WeightedDegreeAndTotalWeight) {
  auto g = CsrGraph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->WeightedDegree(1), 5.0);
  EXPECT_DOUBLE_EQ(g->TotalWeight(), 5.0);
}

TEST(CsrGraphTest, ToSparseMatrixSymmetric) {
  auto g = CsrGraph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  ASSERT_TRUE(g.ok());
  SparseMatrix a = g->ToSparseMatrix();
  EXPECT_DOUBLE_EQ(a.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.SymmetryError(), 0.0);
  EXPECT_DOUBLE_EQ(a.TotalSum(), 10.0);  // each edge twice
}

TEST(CsrGraphTest, IsStoredAsItsAdjacencyMatrix) {
  auto g = CsrGraph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  ASSERT_TRUE(g.ok());
  // No copy: both calls return the graph's own storage.
  EXPECT_EQ(&g->ToSparseMatrix(), &g->ToSparseMatrix());
  EXPECT_EQ(&g->offsets(), &g->ToSparseMatrix().row_offsets());
  EXPECT_EQ(&g->neighbors(), &g->ToSparseMatrix().col_indices());
  EXPECT_EQ(&g->weights(), &g->ToSparseMatrix().values());
  EXPECT_EQ(g->ToSparseMatrix().rows(), 3);
  EXPECT_EQ(g->ToSparseMatrix().cols(), 3);
}

TEST(CsrGraphTest, ZeroWeightEdgesStayStored) {
  // Parallel edges summing to 0 and an edge of weight 0 are topology.
  auto g = CsrGraph::FromEdges(
      4, {{0, 1, 1.0}, {1, 0, -1.0}, {1, 2, 0.0}, {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(2, 1));
  EXPECT_EQ(g->EdgeWeight(1, 2), 0.0);
  EXPECT_EQ(g->ToSparseMatrix().NumNonZeros(), 6);
  EXPECT_EQ(ConnectedComponents(*g).num_components, 1);
  EXPECT_TRUE(g->Validate().ok());
  CsrGraph sub = g->InducedSubgraph({2, 1});
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_TRUE(sub.HasEdge(0, 1));
}

TEST(CsrGraphTest, InducedSubgraph) {
  CsrGraph g = Path(5);
  CsrGraph sub = g.InducedSubgraph({1, 2, 4});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 1);  // only (1,2) survives
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_FALSE(sub.HasEdge(0, 2));
}

TEST(CsrGraphTest, EmptyGraph) {
  auto g = CsrGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0);
  EXPECT_EQ(ConnectedComponents(*g).num_components, 0);
}

TEST(CsrGraphTest, UntrustedPartsRejectOneWayArcs) {
  // A missing reverse arc is rejected whatever the arc's weight. Weight 0 is
  // the case a weight comparison alone misses: an absent arc weighs 0 too.
  EXPECT_FALSE(CsrGraph::FromUntrustedParts(2, {0, 1, 1}, {1}, {0.0}).ok());
  EXPECT_FALSE(CsrGraph::FromUntrustedParts(2, {0, 0, 1}, {0}, {0.0}).ok());
  EXPECT_FALSE(CsrGraph::FromUntrustedParts(2, {0, 1, 1}, {1}, {2.0}).ok());
  // Reverse arc present but with another weight.
  EXPECT_FALSE(
      CsrGraph::FromUntrustedParts(2, {0, 1, 2}, {1, 0}, {2.0, 3.0}).ok());
  // Node 2's arc to 0 has no reverse; 0 -> 1 and 1 -> 2 do.
  EXPECT_FALSE(CsrGraph::FromUntrustedParts(3, {0, 1, 3, 5}, {1, 0, 2, 0, 1},
                                            {1.0, 1.0, 1.0, 0.0, 1.0})
                   .ok());
  // Node 0 -> 2 has no reverse (row 2 stores only 1).
  EXPECT_FALSE(CsrGraph::FromUntrustedParts(3, {0, 2, 4, 5}, {1, 2, 0, 2, 1},
                                            {1.0, 0.0, 1.0, 1.0, 1.0})
                   .ok());
  // The same arrays as a triangle are adopted, zero weights included.
  auto triangle = CsrGraph::FromUntrustedParts(
      3, {0, 2, 4, 6}, {1, 2, 0, 2, 0, 1}, {1.0, 0.0, 1.0, 2.0, 0.0, 2.0});
  ASSERT_TRUE(triangle.ok());
  EXPECT_EQ(triangle->num_edges(), 3);
  // Every graph built by the trusted factories passes too.
  for (int n : {1, 2, 7}) EXPECT_TRUE(Path(n).Validate().ok()) << n;
}

TEST(ConnectedComponentsTest, SingleComponent) {
  CsrGraph g = Path(6);
  ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 1);
  for (int c : labels.component) EXPECT_EQ(c, 0);
}

TEST(ConnectedComponentsTest, MultipleComponents) {
  auto g = CsrGraph::FromEdges(6, {{0, 1, 1.0}, {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  ComponentLabels labels = ConnectedComponents(*g);
  EXPECT_EQ(labels.num_components, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(labels.component[0], labels.component[1]);
  EXPECT_NE(labels.component[0], labels.component[2]);
}

TEST(ConnectedComponentsTest, LabelConstrained) {
  // Path 0-1-2-3 with k-means labels {0,0,1,1}: two components.
  CsrGraph g = Path(4);
  ComponentLabels labels = LabelConstrainedComponents(g, {0, 0, 1, 1});
  EXPECT_EQ(labels.num_components, 2);
  EXPECT_EQ(labels.component[0], labels.component[1]);
  EXPECT_EQ(labels.component[2], labels.component[3]);
  EXPECT_NE(labels.component[1], labels.component[2]);
}

TEST(ConnectedComponentsTest, LabelConstrainedSplitsSameLabel) {
  // Path 0-1-2-3-4 with labels {0,1,0,1,0}: five singleton components.
  CsrGraph g = Path(5);
  ComponentLabels labels = LabelConstrainedComponents(g, {0, 1, 0, 1, 0});
  EXPECT_EQ(labels.num_components, 5);
}

TEST(ComponentsOfSubsetTest, FindsSubcomponents) {
  CsrGraph g = Path(6);
  auto comps = ComponentsOfSubset(g, {0, 1, 3, 4});
  ASSERT_EQ(comps.size(), 2u);
  // Sort for comparison.
  for (auto& c : comps) std::sort(c.begin(), c.end());
  std::sort(comps.begin(), comps.end());
  EXPECT_EQ(comps[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<int>{3, 4}));
}

TEST(IsSubsetConnectedTest, Cases) {
  CsrGraph g = Path(5);
  EXPECT_TRUE(IsSubsetConnected(g, {}));
  EXPECT_TRUE(IsSubsetConnected(g, {2}));
  EXPECT_TRUE(IsSubsetConnected(g, {1, 2, 3}));
  EXPECT_FALSE(IsSubsetConnected(g, {0, 2}));
}

TEST(BfsDistancesTest, PathDistances) {
  CsrGraph g = Path(5);
  auto dist = BfsDistances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(BfsDistancesTest, Unreachable) {
  auto g = CsrGraph::FromEdges(3, {{0, 1, 1.0}});
  ASSERT_TRUE(g.ok());
  auto dist = BfsDistances(*g, 0);
  EXPECT_EQ(dist[2], -1);
}

TEST(LargestComponentTest, PicksBiggest) {
  auto g = CsrGraph::FromEdges(7, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  ASSERT_TRUE(g.ok());
  auto comp = LargestComponent(*g);
  std::sort(comp.begin(), comp.end());
  EXPECT_EQ(comp, (std::vector<int>{2, 3, 4}));
}

TEST(GraphStatsTest, Computed) {
  CsrGraph g = Path(4);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_nodes, 4);
  EXPECT_EQ(s.num_edges, 3);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.max_degree, 2);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.5);
}

TEST(GroupByAssignmentTest, Groups) {
  auto groups = GroupByAssignment({0, 1, 0, 2}, 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<int>{1}));
  EXPECT_EQ(groups[2], (std::vector<int>{3}));
}

TEST(ReweightGraphTest, PreservesTopology) {
  CsrGraph g = Path(4);
  CsrGraph w = ReweightGraph(
      g, [](int u, int v, double weight) { return u + v + weight; });
  EXPECT_EQ(w.num_edges(), g.num_edges());
  EXPECT_EQ(w.offsets(), g.offsets());
  EXPECT_EQ(w.neighbors(), g.neighbors());
  EXPECT_DOUBLE_EQ(w.EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(w.EdgeWeight(3, 2), 6.0);
  EXPECT_TRUE(w.Validate().ok());
}

TEST(ReweightGraphTest, CallsOncePerEdgeInRowOrderAndMirrors) {
  // A star plus a chord: row 0 holds three higher neighbours, and the mirror
  // slots of 1, 2 and 3 are each their row's first entry.
  auto g = CsrGraph::FromEdges(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0},
                                   {2, 3, 1.0}});
  ASSERT_TRUE(g.ok());
  std::vector<std::pair<int, int>> calls;
  CsrGraph w = ReweightGraph(*g, [&](int u, int v, double) {
    calls.emplace_back(u, v);
    return 10.0 * u + v;
  });
  EXPECT_EQ(calls, (std::vector<std::pair<int, int>>{
                       {0, 1}, {0, 2}, {0, 3}, {2, 3}}));
  EXPECT_EQ(w.weights(),
            (std::vector<double>{1.0, 2.0, 3.0, 1.0, 2.0, 23.0, 3.0, 23.0}));
  EXPECT_TRUE(w.Validate().ok());
}

TEST(ReweightGraphTest, ZeroWeightKeepsTheEdge) {
  CsrGraph g = Path(3);
  CsrGraph w = ReweightGraph(g, [](int, int, double) { return 0.0; });
  EXPECT_EQ(w.num_edges(), 2);
  EXPECT_TRUE(w.HasEdge(0, 1));
  EXPECT_EQ(w.ToSparseMatrix().NumNonZeros(), 4);
  EXPECT_TRUE(IsSubsetConnected(w, {0, 1, 2}));
}

}  // namespace
}  // namespace roadpart
