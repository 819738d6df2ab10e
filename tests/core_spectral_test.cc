#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "core/alpha_cut.h"
#include "core/normalized_cut.h"
#include "core/spectral_common.h"
#include "graph/connected_components.h"
#include "linalg/linear_operator.h"
#include "linalg/symmetric_eigen.h"
#include "metrics/validity.h"
#include "netgen/grid_generator.h"
#include "network/road_graph.h"

namespace roadpart {
namespace {

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

TEST(DensifyAssignmentTest, RenumbersDensely) {
  std::vector<int> a = {5, 5, 9, 2, 9};
  int k = DensifyAssignment(a);
  EXPECT_EQ(k, 3);
  EXPECT_EQ(a, (std::vector<int>{0, 0, 1, 2, 1}));
}

TEST(DensifyAssignmentTest, AlreadyDenseUnchanged) {
  std::vector<int> a = {0, 1, 2, 1};
  EXPECT_EQ(DensifyAssignment(a), 3);
  EXPECT_EQ(a, (std::vector<int>{0, 1, 2, 1}));
}

TEST(EnforcePartitionConnectivityTest, MergesFragments) {
  // Path 0-1-2-3-4; partition 0 = {0, 4} is disconnected.
  CsrGraph g = CsrGraph::FromEdges(
                   5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}})
                   .value();
  std::vector<int> a = {0, 1, 1, 1, 0};
  EnforcePartitionConnectivity(g, a);
  EXPECT_TRUE(CheckPartitionValidity(g, a).ok());
}

TEST(EnforcePartitionConnectivityTest, FragmentJoinsStrongestNeighbour) {
  // Path with weighted edges: fragment {4} must join the partition with the
  // heavier connecting edge.
  CsrGraph g = CsrGraph::FromEdges(
                   5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 9.0}})
                   .value();
  std::vector<int> a = {0, 0, 1, 1, 0};  // {0,1,4} disconnected
  EnforcePartitionConnectivity(g, a);
  EXPECT_TRUE(CheckPartitionValidity(g, a).ok());
  EXPECT_EQ(a[4], a[3]);  // joined via the weight-9 edge
}

TEST(EnforcePartitionConnectivityTest, ConnectedInputUntouched) {
  CsrGraph g = CliqueRing(3, 4);
  std::vector<int> a(12);
  for (int i = 0; i < 12; ++i) a[i] = i / 4;
  std::vector<int> before = a;
  EnforcePartitionConnectivity(g, a);
  EXPECT_EQ(a, before);
}

TEST(ExtremeEigenvectorsTest, DenseAndLanczosAgree) {
  CsrGraph g = CliqueRing(4, 8);
  SparseMatrix a = g.ToSparseMatrix();
  SparseOperator op(a);
  SpectralOptions dense_opt;
  dense_opt.dense_threshold = 1000;
  SpectralOptions lanczos_opt;
  lanczos_opt.dense_threshold = 4;
  auto dense = ExtremeEigenvectors(op, 3, SpectrumEnd::kSmallest, dense_opt);
  auto lanczos =
      ExtremeEigenvectors(op, 3, SpectrumEnd::kSmallest, lanczos_opt);
  ASSERT_TRUE(dense.ok() && lanczos.ok());
  // Clique graphs have degenerate extreme eigenvalues, so individual columns
  // are not unique; the spanned subspaces must agree: every Lanczos column
  // lies (numerically) in the dense column span.
  const int n = g.num_nodes();
  for (int c = 0; c < 3; ++c) {
    double norm_sq = 0.0;
    double projected_sq = 0.0;
    for (int r = 0; r < n; ++r) {
      norm_sq += (*lanczos)(r, c) * (*lanczos)(r, c);
    }
    for (int dc = 0; dc < 3; ++dc) {
      double dot = 0.0;
      for (int r = 0; r < n; ++r) dot += (*lanczos)(r, c) * (*dense)(r, dc);
      projected_sq += dot * dot;
    }
    EXPECT_NEAR(projected_sq, norm_sq, 1e-5) << "column " << c;
  }
}

TEST(ExtremeEigenvectorsTest, InvalidK) {
  CsrGraph g = CliqueRing(2, 3);
  SparseMatrix a = g.ToSparseMatrix();
  SparseOperator op(a);
  SpectralOptions opt;
  EXPECT_FALSE(ExtremeEigenvectors(op, 0, SpectrumEnd::kSmallest, opt).ok());
  EXPECT_FALSE(ExtremeEigenvectors(op, 7, SpectrumEnd::kSmallest, opt).ok());
}

TEST(GreedyMergeTest, ReachesExactKAndStaysValid) {
  CsrGraph g = CliqueRing(8, 4);
  AlphaCutOptions opt;
  opt.pipeline.exact_k_method = ExactKMethod::kGreedyMerge;
  opt.pipeline.kmeans.seed = 5;
  auto cut = AlphaCutPartition(g, 3, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 3);
  EXPECT_TRUE(CheckPartitionValidity(g, cut->assignment).ok());
}

TEST(GreedyMergeTest, MergesMostSimilarFirst) {
  // Three cliques where two are joined by a much heavier bridge: reducing
  // 3 -> 2 must merge across the heavy bridge.
  std::vector<Edge> edges;
  for (int c = 0; c < 3; ++c) {
    int base = c * 4;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) edges.push_back({base + i, base + j, 1.0});
    }
  }
  edges.push_back({3, 4, 2.0});    // clique0 - clique1, heavy
  edges.push_back({7, 8, 0.01});   // clique1 - clique2, light
  CsrGraph g = CsrGraph::FromEdges(12, edges).value();
  AlphaCutOptions opt;
  opt.pipeline.exact_k_method = ExactKMethod::kGreedyMerge;
  opt.pipeline.kmeans.seed = 5;
  auto cut = AlphaCutPartition(g, 2, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 2);
  EXPECT_EQ(cut->assignment[0], cut->assignment[4]);   // merged pair
  EXPECT_NE(cut->assignment[0], cut->assignment[8]);
}

TEST(SpectralPipelineTest, KEqualGraphOrder) {
  CsrGraph g = CliqueRing(3, 2);
  AlphaCutOptions opt;
  opt.pipeline.kmeans.seed = 3;
  auto cut = AlphaCutPartition(g, 6, opt);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->k_final, 6);  // every node its own partition
}

class RandomGraphSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphSweep, PipelineAlwaysValid) {
  // Random connected weighted graphs: the pipeline must always deliver
  // exactly k valid connected partitions.
  Rng rng(GetParam());
  const int n = 40;
  std::vector<Edge> edges;
  for (int i = 1; i < n; ++i) {
    edges.push_back({static_cast<int>(rng.NextBounded(i)), i,
                     0.1 + rng.NextDouble()});
  }
  for (int extra = 0; extra < 40; ++extra) {
    int u = static_cast<int>(rng.NextBounded(n));
    int v = static_cast<int>(rng.NextBounded(n));
    if (u != v) edges.push_back({u, v, 0.1 + rng.NextDouble()});
  }
  CsrGraph g = CsrGraph::FromEdges(n, edges).value();
  for (int k : {2, 4, 7}) {
    AlphaCutOptions opt;
    opt.pipeline.kmeans.seed = GetParam();
    auto cut = AlphaCutPartition(g, k, opt);
    ASSERT_TRUE(cut.ok()) << "k=" << k;
    EXPECT_EQ(cut->k_final, k);
    EXPECT_TRUE(CheckPartitionValidity(g, cut->assignment).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// y = D^{-1/2} A D^{-1/2} x in the arithmetic order of NormalizedCutMethod's
// operator, over any matrix A.
class NormalizedAdjacency : public LinearOperator {
 public:
  explicit NormalizedAdjacency(const SparseMatrix& a)
      : a_(a), inv_sqrt_deg_(a.rows(), 0.0), scratch_(a.rows(), 0.0) {
    std::vector<double> deg = a.RowSums();
    for (int i = 0; i < a.rows(); ++i) {
      if (deg[i] > 0.0) inv_sqrt_deg_[i] = 1.0 / std::sqrt(deg[i]);
    }
  }
  int Dim() const override { return a_.rows(); }
  void Apply(const double* x, double* y) const override {
    for (int i = 0; i < a_.rows(); ++i) scratch_[i] = inv_sqrt_deg_[i] * x[i];
    a_.Multiply(scratch_.data(), y);
    for (int i = 0; i < a_.rows(); ++i) y[i] *= inv_sqrt_deg_[i];
  }

 private:
  const SparseMatrix& a_;
  std::vector<double> inv_sqrt_deg_;
  mutable std::vector<double> scratch_;
};

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// One density outlier on a 70x70 grid drives the Gaussian similarity of its
// segment's arcs to exactly 0. Those arcs are topology: the graph's matrix
// keeps them, subset connectivity sees them, and they change no bit of
// either embedding against the same solve over a copy with the zeros
// dropped.
TEST(ZeroWeightArcsTest, StayStoredAndLeaveEmbeddingsBitIdentical) {
  GridOptions grid;
  grid.rows = 70;
  grid.cols = 70;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  const CsrGraph adjacency = RoadGraph::FromNetwork(net).adjacency();
  std::vector<double> f(adjacency.num_nodes());
  Rng rng(7);
  for (double& x : f) x = 1.0 + 0.1 * rng.NextDouble();
  f[0] = 1e6;
  const CsrGraph g = GaussianWeightedGraph(adjacency, f);

  // 1. Every arc of the topology is stored, zeros included.
  const SparseMatrix& a = g.ToSparseMatrix();
  ASSERT_EQ(a.NumNonZeros(), 2 * adjacency.num_edges());
  EXPECT_EQ(g.neighbors(), adjacency.neighbors());
  std::vector<int64_t> offsets = {0};
  std::vector<int> cols;
  std::vector<double> values;
  for (int r = 0; r < a.rows(); ++r) {
    for (int64_t i = a.row_offsets()[r]; i < a.row_offsets()[r + 1]; ++i) {
      if (a.values()[i] != 0.0) {
        cols.push_back(a.col_indices()[i]);
        values.push_back(a.values()[i]);
      }
    }
    offsets.push_back(static_cast<int64_t>(cols.size()));
  }
  const int64_t zeros = a.NumNonZeros() - static_cast<int64_t>(cols.size());
  EXPECT_GT(zeros, 0);
  const SparseMatrix dropped =
      SparseMatrix::FromRawCsr(a.rows(), a.cols(), std::move(offsets),
                               std::move(cols), std::move(values));

  // 2. Connectivity runs over zero-weight arcs: segment 0 reaches each
  // neighbour through one.
  ASSERT_GT(g.Degree(0), 0);
  for (int v : g.Neighbors(0)) {
    ASSERT_EQ(g.EdgeWeight(0, v), 0.0);
    EXPECT_TRUE(IsSubsetConnected(g, {0, v}));
    EXPECT_EQ(ComponentsOfSubset(g, {v, 0}).size(), 1u);
  }

  // 3. Bit-identical embeddings. A small Lanczos budget keeps the test fast;
  // identity does not depend on convergence.
  SpectralOptions spectral;
  spectral.lanczos.max_subspace = 60;
  spectral.lanczos.max_restarts = 1;
  constexpr int kK = 4;

  const DenseMatrix alpha = AlphaCutMethod(spectral).Embed(g, kK).value();
  SparseOperator a_op(dropped);
  std::vector<double> d = dropped.RowSums();
  double s = 0.0;
  for (double x : d) s += x;
  RankOneUpdatedOperator m_op(a_op, d, 1.0 / s, -1.0);
  const DenseMatrix alpha_ref =
      RowNormalize(
          ExtremeEigenvectors(m_op, kK, SpectrumEnd::kSmallest, spectral)
              .value())
          .value();
  EXPECT_TRUE(SameBits(alpha, alpha_ref));

  const DenseMatrix ncut = NormalizedCutMethod(spectral).Embed(g, kK).value();
  NormalizedAdjacency n_op(dropped);
  const DenseMatrix ncut_ref =
      RowNormalize(
          ExtremeEigenvectors(n_op, kK, SpectrumEnd::kLargest, spectral)
              .value())
          .value();
  EXPECT_TRUE(SameBits(ncut, ncut_ref));
}

}  // namespace
}  // namespace roadpart
