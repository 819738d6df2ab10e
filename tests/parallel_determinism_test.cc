// Differential determinism suite: the spectral hot path is parallel
// (common/parallel.h kernels), and this suite proves the parallelism is
// invisible — every pipeline stage (miner -> alpha-Cut / normalized-cut ->
// refinement) produces bit-identical partitions at 1, 2 and 8 worker
// threads on all three generator families. See tests/differential/.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "differential/differential_harness.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"
#include "network/road_graph.h"

namespace roadpart {
namespace {

using differential::ExpectLanczosThreadInvariant;
using differential::ExpectPipelineThreadInvariant;
using differential::NetworkCase;
using differential::SeededNetworks;

PartitionerOptions BaseOptions(Scheme scheme, int k = 4) {
  PartitionerOptions options;
  options.scheme = scheme;
  options.k = k;
  options.seed = 11;
  return options;
}

TEST(ParallelDeterminismTest, AlphaCutRoadGraphAllFamilies) {
  for (const NetworkCase& net : SeededNetworks()) {
    ExpectPipelineThreadInvariant(net, BaseOptions(Scheme::kAG),
                                  "alpha-cut/AG");
  }
}

TEST(ParallelDeterminismTest, NormalizedCutRoadGraphAllFamilies) {
  for (const NetworkCase& net : SeededNetworks()) {
    ExpectPipelineThreadInvariant(net, BaseOptions(Scheme::kNG), "ncut/NG");
  }
}

TEST(ParallelDeterminismTest, SupergraphPipelinesWithRefinement) {
  // Full pipeline: miner -> cut -> boundary refinement -> connectivity.
  for (const NetworkCase& net : SeededNetworks()) {
    for (Scheme scheme : {Scheme::kASG, Scheme::kNSG}) {
      PartitionerOptions options = BaseOptions(scheme);
      options.refine_boundary = true;
      ExpectPipelineThreadInvariant(
          net, options,
          std::string("supergraph+refine/") + SchemeName(scheme));
    }
  }
}

TEST(ParallelDeterminismTest, GreedyMergeReductionPath) {
  // The alternative Section 5.4 reduction must be thread-invariant too.
  for (const NetworkCase& net : SeededNetworks()) {
    PartitionerOptions options = BaseOptions(Scheme::kAG, /*k=*/3);
    options.exact_k_method = ExactKMethod::kGreedyMerge;
    ExpectPipelineThreadInvariant(net, options, "alpha-cut/greedy-merge");
  }
}

TEST(ParallelDeterminismTest, AlphaCutEigenvaluesWithin1e12) {
  // Direct eigensolver differential on the real alpha-Cut operator
  // M = (d d^T)/s - A of the grid network's weighted road graph.
  std::vector<NetworkCase> nets = SeededNetworks();
  ASSERT_FALSE(nets.empty());
  RoadGraph rg = RoadGraph::FromNetwork(nets[0].network);
  CsrGraph weighted = GaussianWeightedGraph(rg.adjacency(), rg.features());
  SparseMatrix a = weighted.ToSparseMatrix();
  SparseOperator a_op(a);
  std::vector<double> d = a.RowSums();
  double s = 0.0;
  for (double v : d) s += v;
  RankOneUpdatedOperator m_op(a_op, d, s > 0.0 ? 1.0 / s : 0.0, -1.0);

  LanczosOptions options;
  EigenResult serial = ExpectLanczosThreadInvariant(
      m_op, /*k=*/4, SpectrumEnd::kSmallest, options, "alpha-cut operator");
  ASSERT_EQ(serial.eigenvalues.size(), 4u);
  // Ascending order is part of the solver contract.
  for (size_t i = 1; i < serial.eigenvalues.size(); ++i) {
    EXPECT_LE(serial.eigenvalues[i - 1], serial.eigenvalues[i]);
  }
}

TEST(ParallelDeterminismTest, LanczosBlockedKernelsAtScale) {
  // An order above 8192 so every blocked kernel of the solver really splits
  // (Gram-Schmidt projections over row groups, updates and Ritz vectors over
  // element blocks): eigenvalues, vectors and residual must be bit-identical
  // at 1, 2 and 8 threads.
  const int n = 9001;
  Rng rng(31);
  std::vector<Triplet> upper;
  for (int i = 0; i < n; ++i) {
    upper.push_back({std::min(i, (i + 1) % n), std::max(i, (i + 1) % n),
                     1.0 + rng.NextDouble()});
  }
  for (int c = 0; c < n / 4; ++c) {
    int u = static_cast<int>(rng.NextBounded(n));
    int v = static_cast<int>(rng.NextBounded(n));
    if (u != v) {
      upper.push_back({std::min(u, v), std::max(u, v), rng.NextDouble()});
    }
  }
  auto m = SparseMatrix::SymmetricFromTriplets(n, upper);
  ASSERT_TRUE(m.ok());
  SparseOperator op(*m);
  LanczosOptions options;
  EigenResult serial = ExpectLanczosThreadInvariant(
      op, /*k=*/4, SpectrumEnd::kLargest, options, "order 9001");
  ASSERT_EQ(serial.eigenvectors.rows(), n);
  EXPECT_TRUE(serial.converged);
  // The factorization grew through more than one checkpoint.
  EXPECT_GE(serial.restarts_used, 1);
}

// Forwards to a base operator and counts the applications.
class CountingOperator final : public LinearOperator {
 public:
  explicit CountingOperator(const LinearOperator& base) : base_(base) {}
  int Dim() const override { return base_.Dim(); }
  void Apply(const double* x, double* y) const override {
    ++applies_;
    base_.Apply(x, y);
  }
  int applies() const { return applies_; }

 private:
  const LinearOperator& base_;
  mutable int applies_ = 0;
};

TEST(ParallelDeterminismTest, ChebyshevFilteredLanczosAtScale) {
  // A spectrum shaped like the alpha-Cut matrix of the AG benchmark city, at
  // an order above 8192 so the blocked kernels split: four eigenvalues
  // within 3e-11 of -1, two more 2e-5 and 1.5e-4 above them, and the rest
  // spread over [-0.9997, 1]. Plain Lanczos misses its 120-row checkpoint,
  // so the solve runs the Chebyshev filter, its factorization and the
  // Rayleigh-Ritz acceptance test; all of it must be bit-identical at 1, 2
  // and 8 threads.
  const int n = 9001;
  Rng rng(47);
  std::vector<Triplet> diagonal;
  for (int i = 0; i < n; ++i) {
    double value = -0.9997 + 1.9997 * rng.NextDouble();
    if (i < 4) value = -1.0 + 1e-11 * i;
    if (i == 4) value = -0.99998;
    if (i == 5) value = -0.99985;
    diagonal.push_back({i, i, value});
  }
  auto m = SparseMatrix::FromTriplets(n, n, diagonal);
  ASSERT_TRUE(m.ok());
  SparseOperator base(*m);
  CountingOperator op(base);
  LanczosOptions options;
  EigenResult serial = ExpectLanczosThreadInvariant(
      op, /*k=*/4, SpectrumEnd::kSmallest, options, "filtered, order 9001");
  EXPECT_TRUE(serial.converged);
  // Past the 120 plain rows each of the three solves applies the filter.
  EXPECT_GT(op.applies(), 3 * (120 + 32 * 60));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(serial.eigenvalues[i], -1.0, 1e-9) << "eigenvalue " << i;
  }
}

TEST(ParallelDeterminismTest, RepeatedRunsAreReproducible) {
  // Same seed + same thread count twice -> identical outcome (guards
  // against hidden global state in the parallel kernels).
  std::vector<NetworkCase> nets = SeededNetworks();
  ASSERT_FALSE(nets.empty());
  PartitionerOptions options = BaseOptions(Scheme::kASG);
  auto first = differential::RunPipeline(nets[0].network, options, 8);
  auto second = differential::RunPipeline(nets[0].network, options, 8);
  differential::ExpectIdenticalFingerprint(first, second, "rerun @8 threads");
}

}  // namespace
}  // namespace roadpart
