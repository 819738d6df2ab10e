#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "core/alpha_cut.h"
#include "core/normalized_cut.h"
#include "core/spectral_common.h"
#include "graph/connected_components.h"
#include "metrics/modularity.h"
#include "metrics/validity.h"

namespace roadpart {
namespace {

// Two weighted cliques joined by one weak bridge.
CsrGraph TwoCommunities() {
  std::vector<Edge> edges;
  for (int base : {0, 5}) {
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) {
        edges.push_back({base + i, base + j, 1.0});
      }
    }
  }
  edges.push_back({4, 5, 0.05});
  return CsrGraph::FromEdges(10, edges).value();
}

// Ring of `k` cliques of size `m`, weakly bridged.
CsrGraph CliqueRing(int k, int m) {
  std::vector<Edge> edges;
  for (int c = 0; c < k; ++c) {
    int base = c * m;
    for (int i = 0; i < m; ++i) {
      for (int j = i + 1; j < m; ++j) {
        edges.push_back({base + i, base + j, 1.0});
      }
    }
    int next_base = ((c + 1) % k) * m;
    edges.push_back({base + m - 1, next_base, 0.05});
  }
  return CsrGraph::FromEdges(k * m, edges).value();
}

TEST(AlphaCutMatrixTest, EqualsNegativeModularityMatrix) {
  // Section 7: the alpha-Cut matrix equals the negative modularity matrix
  // B = A - d d^T / 2m.
  CsrGraph g = TwoCommunities();
  DenseMatrix m = AlphaCutMatrix(g);
  DenseMatrix a = g.ToSparseMatrix().ToDense();
  double two_m = 2.0 * g.TotalWeight();
  for (int i = 0; i < g.num_nodes(); ++i) {
    for (int j = 0; j < g.num_nodes(); ++j) {
      double b_ij = a(i, j) - g.WeightedDegree(i) * g.WeightedDegree(j) / two_m;
      EXPECT_NEAR(m(i, j), -b_ij, 1e-12);
    }
  }
  EXPECT_LT(m.SymmetryError(), 1e-12);
}

TEST(AlphaCutObjectiveTest, MatchesMatrixQuadraticForm) {
  CsrGraph g = TwoCommunities();
  std::vector<int> assignment = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  DenseMatrix m = AlphaCutMatrix(g);
  // sum_i c_i^T M c_i / (c_i^T c_i) computed densely.
  double expected = 0.0;
  for (int p = 0; p < 2; ++p) {
    std::vector<double> c(10, 0.0);
    int count = 0;
    for (int v = 0; v < 10; ++v) {
      if (assignment[v] == p) {
        c[v] = 1.0;
        ++count;
      }
    }
    std::vector<double> mc(10);
    m.Multiply(c.data(), mc.data());
    double quad = 0.0;
    for (int v = 0; v < 10; ++v) quad += c[v] * mc[v];
    expected += quad / count;
  }
  EXPECT_NEAR(AlphaCutObjective(g, assignment), expected, 1e-10);
}

// Both objectives are the sum of their PartitionTerm over SumPartitions. A
// hand-written reference that skips empty partitions (labels 1 and 4 are
// unused here) gives the same bits: an empty partition adds +0.0.
TEST(AlphaCutObjectiveTest, ObjectivesAreSumsOfPartitionTerms) {
  CsrGraph g = CliqueRing(4, 6);
  Rng rng(3);
  std::vector<int> assignment(g.num_nodes());
  for (int& a : assignment) {
    const int labels[] = {0, 2, 3, 5};
    a = labels[rng.NextBounded(4)];
  }
  const PartitionSums sums = SumPartitions(g, assignment, 6);
  ASSERT_EQ(sums.size[1], 0);
  ASSERT_EQ(sums.size[4], 0);
  double alpha = 0.0;
  double ncut = 0.0;
  double total = 0.0;
  for (double w : g.weights()) total += w;
  for (int p = 0; p < 6; ++p) {
    double volume = 0.0;
    double internal = 0.0;
    int size = 0;
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (assignment[u] != p) continue;
      ++size;
      auto nbrs = g.Neighbors(u);
      auto wts = g.NeighborWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        volume += wts[i];
        if (assignment[nbrs[i]] == p) internal += wts[i];
      }
    }
    if (size == 0) continue;
    alpha += (volume * volume / total - internal) / size;
    ncut += (volume - internal) / volume;
  }
  const double got_alpha = AlphaCutObjective(g, assignment);
  const double got_ncut = NormalizedCutObjective(g, assignment);
  EXPECT_EQ(std::memcmp(&got_alpha, &alpha, sizeof(double)), 0)
      << got_alpha << " vs " << alpha;
  EXPECT_EQ(std::memcmp(&got_ncut, &ncut, sizeof(double)), 0)
      << got_ncut << " vs " << ncut;
  EXPECT_EQ(AlphaCutMethod().Objective(g, assignment), got_alpha);
  EXPECT_EQ(NormalizedCutMethod().Objective(g, assignment), got_ncut);
}

TEST(AlphaCutObjectiveTest, GoodSplitBeatsBadSplit) {
  CsrGraph g = TwoCommunities();
  std::vector<int> good = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  std::vector<int> bad = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LT(AlphaCutObjective(g, good), AlphaCutObjective(g, bad));
}

TEST(AlphaCutObjectiveTest, ConstAlphaExtremes) {
  CsrGraph g = TwoCommunities();
  std::vector<int> split = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  // alpha = 1: pure average cut, non-negative for non-negative weights.
  EXPECT_GE(AlphaCutObjectiveConstAlpha(g, split, 1.0), 0.0);
  // alpha = 0: pure negative average association, non-positive.
  EXPECT_LE(AlphaCutObjectiveConstAlpha(g, split, 0.0), 0.0);
}

TEST(AlphaCutPartitionTest, RecoversTwoCommunities) {
  CsrGraph g = TwoCommunities();
  auto cut = AlphaCutPartition(g, 2);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 2);
  // Nodes 0-4 together, 5-9 together.
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(cut->assignment[i], cut->assignment[0]);
  }
  for (int i = 6; i < 10; ++i) {
    EXPECT_EQ(cut->assignment[i], cut->assignment[5]);
  }
  EXPECT_NE(cut->assignment[0], cut->assignment[5]);
}

TEST(AlphaCutPartitionTest, RecoversFourCliques) {
  CsrGraph g = CliqueRing(4, 6);
  AlphaCutOptions opt;
  opt.pipeline.kmeans.seed = 3;
  auto cut = AlphaCutPartition(g, 4, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 4);
  // Each clique pure.
  for (int c = 0; c < 4; ++c) {
    int label = cut->assignment[c * 6];
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(cut->assignment[c * 6 + i], label) << "clique " << c;
    }
  }
}

TEST(AlphaCutPartitionTest, PartitionsAreValidAndConnected) {
  CsrGraph g = CliqueRing(5, 5);
  auto cut = AlphaCutPartition(g, 3);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(CheckPartitionValidity(g, cut->assignment).ok());
  EXPECT_EQ(cut->k_final, 3);
}

TEST(AlphaCutPartitionTest, KPrimeReductionReachesExactK) {
  // Scattered communities force k' > k; the recursive bipartitioning must
  // land exactly on k.
  CsrGraph g = CliqueRing(8, 4);
  AlphaCutOptions opt;
  opt.pipeline.kmeans.seed = 11;
  auto cut = AlphaCutPartition(g, 3, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 3);
  EXPECT_GE(cut->k_prime, 3);
}

TEST(AlphaCutPartitionTest, NoReductionWhenDisabled) {
  CsrGraph g = CliqueRing(8, 4);
  AlphaCutOptions opt;
  opt.pipeline.enforce_exact_k = false;
  opt.pipeline.enforce_connectivity = false;
  opt.pipeline.kmeans.seed = 11;
  auto cut = AlphaCutPartition(g, 3, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, cut->k_prime);
}

TEST(AlphaCutPartitionTest, InvalidK) {
  CsrGraph g = TwoCommunities();
  EXPECT_FALSE(AlphaCutPartition(g, 0).ok());
  EXPECT_FALSE(AlphaCutPartition(g, 11).ok());
}

TEST(AlphaCutPartitionTest, KEqualsOne) {
  CsrGraph g = TwoCommunities();
  auto cut = AlphaCutPartition(g, 1);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 1);
}

TEST(AlphaCutPartitionTest, MinimizingAlphaCutMaximizesModularity) {
  // Section 7's claim, checked behaviourally: the alpha-Cut partition has
  // higher modularity than random partitions of the same graph.
  CsrGraph g = CliqueRing(4, 6);
  auto cut = AlphaCutPartition(g, 4);
  ASSERT_TRUE(cut.ok());
  double q_cut = Modularity(g, cut->assignment).value();
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> random(g.num_nodes());
    for (int& a : random) a = static_cast<int>(rng.NextBounded(4));
    double q_rand = Modularity(g, random).value();
    EXPECT_GE(q_cut, q_rand);
  }
}

TEST(AlphaCutPartitionTest, LanczosPathMatchesDensePath) {
  // Same graph solved with the dense solver and with Lanczos (forced by a
  // tiny dense_threshold): both must recover the planted communities.
  CsrGraph g = CliqueRing(3, 10);
  AlphaCutOptions dense;
  dense.spectral.dense_threshold = 1000;
  dense.pipeline.kmeans.seed = 9;
  AlphaCutOptions sparse;
  sparse.spectral.dense_threshold = 5;
  sparse.pipeline.kmeans.seed = 9;
  auto a = AlphaCutPartition(g, 3, dense);
  auto b = AlphaCutPartition(g, 3, sparse);
  ASSERT_TRUE(a.ok() && b.ok());
  // Same partitioning up to label names.
  std::set<std::pair<int, int>> mapping;
  for (int v = 0; v < g.num_nodes(); ++v) {
    mapping.insert({a->assignment[v], b->assignment[v]});
  }
  EXPECT_EQ(mapping.size(), 3u);
}

TEST(PartitionConnectivityGraphTest, BuildsCondensedWeights) {
  // Path 0-1-2-3 split {0,1} vs {2,3} with edge weight 2 on the bridge:
  // A'(0,1) = sqrt((1/1) * 2^2) = 2.
  CsrGraph g =
      CsrGraph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 1.0}}).value();
  auto condensed = PartitionConnectivityGraph(g, {0, 0, 1, 1}, 2);
  ASSERT_TRUE(condensed.ok());
  EXPECT_EQ(condensed->num_nodes(), 2);
  EXPECT_NEAR(condensed->EdgeWeight(0, 1), 2.0, 1e-12);
}

TEST(PartitionConnectivityGraphTest, RmsOverMultipleLinks) {
  // Two cross edges with weights 1 and 2: RMS = sqrt((1+4)/2).
  CsrGraph g = CsrGraph::FromEdges(
                   4, {{0, 2, 1.0}, {1, 3, 2.0}, {0, 1, 1.0}, {2, 3, 1.0}})
                   .value();
  auto condensed = PartitionConnectivityGraph(g, {0, 0, 1, 1}, 2);
  ASSERT_TRUE(condensed.ok());
  EXPECT_NEAR(condensed->EdgeWeight(0, 1), std::sqrt(2.5), 1e-12);
}

TEST(RowNormalizeTest, UnitRows) {
  DenseMatrix y(3, 2);
  y(0, 0) = 3.0;
  y(0, 1) = 4.0;
  y(1, 0) = 0.0;
  y(1, 1) = 0.0;  // zero row stays zero
  y(2, 0) = -2.0;
  y(2, 1) = 0.0;
  Result<DenseMatrix> normalized = RowNormalize(y);
  ASSERT_TRUE(normalized.ok());
  const DenseMatrix& z = *normalized;
  EXPECT_NEAR(z(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(z(0, 1), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(z(1, 0), 0.0);
  EXPECT_NEAR(z(2, 0), -1.0, 1e-12);
}

TEST(GaussianWeightedGraphTest, WeightsFollowSimilarity) {
  CsrGraph g =
      CsrGraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}}).value();
  std::vector<double> f = {0.0, 0.0, 10.0};
  CsrGraph w = GaussianWeightedGraph(g, f, /*degree_normalize=*/false);
  EXPECT_NEAR(w.EdgeWeight(0, 1), 1.0, 1e-12);  // identical features
  EXPECT_LT(w.EdgeWeight(1, 2), w.EdgeWeight(0, 1));
  EXPECT_GT(w.EdgeWeight(1, 2), 0.0);
}

TEST(GaussianWeightedGraphTest, ZeroVarianceAllOnes) {
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}}).value();
  CsrGraph w =
      GaussianWeightedGraph(g, {2.0, 2.0, 2.0}, /*degree_normalize=*/false);
  EXPECT_DOUBLE_EQ(w.EdgeWeight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.EdgeWeight(1, 2), 1.0);
}

TEST(GaussianWeightedGraphTest, DegreeNormalizationDampsHubs) {
  // Star centre (degree 3) vs leaf pair: normalized weights shrink where
  // degrees are large.
  CsrGraph g =
      CsrGraph::FromEdges(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}}).value();
  std::vector<double> f = {1.0, 1.0, 1.0, 1.0};
  CsrGraph raw = GaussianWeightedGraph(g, f, /*degree_normalize=*/false);
  CsrGraph norm = GaussianWeightedGraph(g, f, /*degree_normalize=*/true);
  EXPECT_DOUBLE_EQ(raw.EdgeWeight(0, 1), 1.0);
  // d_0 = 3, d_1 = 1 -> w' = 1/sqrt(3).
  EXPECT_NEAR(norm.EdgeWeight(0, 1), 1.0 / std::sqrt(3.0), 1e-12);
}

class AlphaCutKSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlphaCutKSweep, AlwaysValidPartitions) {
  CsrGraph g = CliqueRing(6, 5);
  AlphaCutOptions opt;
  opt.pipeline.kmeans.seed = 100 + GetParam();
  auto cut = AlphaCutPartition(g, GetParam(), opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, GetParam());
  EXPECT_TRUE(CheckPartitionValidity(g, cut->assignment).ok());
}

INSTANTIATE_TEST_SUITE_P(Ks, AlphaCutKSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10));

}  // namespace
}  // namespace roadpart
