// Lanczos on pathological spectra, differentially checked against the dense
// Householder+QL solver and across thread counts — the differential
// harness's first non-pipeline consumer. Pathologies covered:
//   - repeated eigenvalues (two identical decoupled blocks),
//   - disconnected supergraph blocks (block-diagonal adjacency, multiple
//     zero-ish extreme eigenvalues),
//   - near-degenerate clustered spectra (ring graphs' paired eigenvalues),
//   - a tight cluster of four eigenvalues within 1e-11, where the Ritz
//     vectors come from inverse iteration and must stay orthonormal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "differential/differential_harness.h"
#include "linalg/lanczos.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {
namespace {

using differential::ExpectLanczosThreadInvariant;

SparseMatrix SymmetricFromTripletsOrDie(int n,
                                        const std::vector<Triplet>& upper) {
  auto m = SparseMatrix::SymmetricFromTriplets(n, upper);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// Weighted ring on [first, first+n): adjacency with clustered (paired)
// eigenvalues; uniform weights make most of them exactly degenerate.
void AppendRing(std::vector<Triplet>& upper, int first, int n, double w) {
  for (int i = 0; i < n; ++i) {
    int a = first + i;
    int b = first + (i + 1) % n;
    upper.push_back({std::min(a, b), std::max(a, b), w});
  }
}

// k smallest (or largest) reference eigenvalues from the dense solver.
std::vector<double> DenseExtremes(const SparseMatrix& m, int k,
                                  SpectrumEnd end) {
  auto eig = SymmetricEigenDecompose(m.ToDense());
  EXPECT_TRUE(eig.ok());
  std::vector<double> values = eig->eigenvalues;  // ascending
  std::vector<double> out(k);
  const int n = static_cast<int>(values.size());
  for (int i = 0; i < k; ++i) {
    out[i] = (end == SpectrumEnd::kSmallest) ? values[i] : values[n - k + i];
  }
  return out;
}

TEST(LanczosPathologicalTest, RepeatedEigenvaluesFromIdenticalBlocks) {
  // Two identical uniform rings: every eigenvalue of one block is repeated
  // in the other, so the k=6 smallest contain exact multiplicities — the
  // classic case where unrestarted Lanczos without reorthogonalization
  // fails to find copies.
  const int block = 200;
  std::vector<Triplet> upper;
  AppendRing(upper, 0, block, 1.0);
  AppendRing(upper, block, block, 1.0);
  SparseMatrix m = SymmetricFromTripletsOrDie(2 * block, upper);
  SparseOperator op(m);

  const int k = 6;
  LanczosOptions options;
  EigenResult lanczos = ExpectLanczosThreadInvariant(
      op, k, SpectrumEnd::kSmallest, options, "identical blocks");
  ASSERT_EQ(lanczos.eigenvalues.size(), static_cast<size_t>(k));

  std::vector<double> dense = DenseExtremes(m, k, SpectrumEnd::kSmallest);
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos.eigenvalues[i], dense[i], 1e-7)
        << "eigenvalue " << i;
  }
}

TEST(LanczosPathologicalTest, DisconnectedSupergraphBlocks) {
  // Three disconnected weighted rings of different sizes/weights — the
  // shape of a supergraph whose mined supernodes fall into disconnected
  // districts. The largest end of the normalized-adjacency-like spectrum
  // then has one extreme eigenvalue per component.
  std::vector<Triplet> upper;
  AppendRing(upper, 0, 150, 2.0);
  AppendRing(upper, 150, 120, 1.0);
  AppendRing(upper, 270, 90, 0.5);
  const int n = 360;
  SparseMatrix m = SymmetricFromTripletsOrDie(n, upper);
  SparseOperator op(m);

  const int k = 5;
  LanczosOptions options;
  EigenResult lanczos = ExpectLanczosThreadInvariant(
      op, k, SpectrumEnd::kLargest, options, "disconnected blocks");
  ASSERT_EQ(lanczos.eigenvalues.size(), static_cast<size_t>(k));

  std::vector<double> dense = DenseExtremes(m, k, SpectrumEnd::kLargest);
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos.eigenvalues[i], dense[i], 1e-7)
        << "eigenvalue " << i;
  }
}

TEST(LanczosPathologicalTest, AlphaCutMatrixOfDisconnectedGraph) {
  // The paper's own operator M = (d d^T)/s - A over a disconnected graph:
  // each component contributes a near-zero eigenvalue at the small end.
  std::vector<Triplet> upper;
  AppendRing(upper, 0, 180, 1.0);
  AppendRing(upper, 180, 180, 1.0);
  const int n = 360;
  SparseMatrix a = SymmetricFromTripletsOrDie(n, upper);
  SparseOperator a_op(a);
  std::vector<double> d = a.RowSums();
  double s = 0.0;
  for (double v : d) s += v;
  RankOneUpdatedOperator m_op(a_op, d, 1.0 / s, -1.0);

  const int k = 4;
  LanczosOptions options;
  EigenResult lanczos = ExpectLanczosThreadInvariant(
      m_op, k, SpectrumEnd::kSmallest, options, "alpha-cut disconnected");
  ASSERT_EQ(lanczos.eigenvalues.size(), static_cast<size_t>(k));

  DenseMatrix dense_m = Materialize(m_op);
  auto dense = SymmetricEigenDecompose(dense_m);
  ASSERT_TRUE(dense.ok());
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos.eigenvalues[i], dense->eigenvalues[i], 1e-7)
        << "eigenvalue " << i;
  }
}

TEST(LanczosPathologicalTest, NearDegenerateClusteredSpectrum) {
  // A ring with tiny random perturbations: eigenvalue pairs split by ~1e-6,
  // stressing the convergence test's spectral-scale normalization.
  const int n = 400;
  Rng rng(99);
  std::vector<Triplet> upper;
  for (int i = 0; i < n; ++i) {
    upper.push_back(
        {std::min(i, (i + 1) % n), std::max(i, (i + 1) % n),
         1.0 + 1e-6 * rng.NextDouble()});
  }
  SparseMatrix m = SymmetricFromTripletsOrDie(n, upper);
  SparseOperator op(m);

  const int k = 6;
  LanczosOptions options;
  EigenResult lanczos = ExpectLanczosThreadInvariant(
      op, k, SpectrumEnd::kSmallest, options, "near-degenerate ring");
  std::vector<double> dense = DenseExtremes(m, k, SpectrumEnd::kSmallest);
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos.eigenvalues[i], dense[i], 1e-6) << "eigenvalue " << i;
  }
}

TEST(LanczosPathologicalTest, TightClusterRitzVectorsStayOrthonormal) {
  // Four disconnected random weighted graphs (rings plus chords), each
  // scaled so its Perron eigenvalue is 2 + 2e-12 c: the four wanted pairs
  // form one cluster of width 6e-12, well apart from the rest of the
  // spectrum. Inverse iteration can only separate such a cluster with
  // perturbed shifts and reorthogonalization; the Ritz vectors must still be
  // orthonormal, and each true residual as small as the solver's own
  // estimate says.
  std::vector<Triplet> upper;
  Rng rng(23);
  const int sizes[] = {101, 97, 89, 83};
  int first = 0;
  for (int c = 0; c < 4; ++c) {
    const int b = sizes[c];
    std::vector<Triplet> block;
    for (int i = 0; i < b; ++i) {
      block.push_back({std::min(i, (i + 1) % b), std::max(i, (i + 1) % b),
                       1.0 + rng.NextDouble()});
    }
    for (int chord = 0; chord < b / 3; ++chord) {
      int u = static_cast<int>(rng.NextBounded(b));
      int v = static_cast<int>(rng.NextBounded(b));
      if (u != v) {
        block.push_back({std::min(u, v), std::max(u, v), rng.NextDouble()});
      }
    }
    SparseMatrix bm = SymmetricFromTripletsOrDie(b, block);
    auto dense = SymmetricEigenDecompose(bm.ToDense());
    ASSERT_TRUE(dense.ok());
    const double scale = (2.0 + 2e-12 * c) / dense->eigenvalues.back();
    for (const Triplet& t : block) {
      upper.push_back({first + t.row, first + t.col, t.value * scale});
    }
    first += b;
  }
  const int n = first;
  SparseMatrix m = SymmetricFromTripletsOrDie(n, upper);
  SparseOperator op(m);

  const int k = 4;
  LanczosOptions options;
  EigenResult lanczos = ExpectLanczosThreadInvariant(
      op, k, SpectrumEnd::kLargest, options, "tight cluster");
  ASSERT_EQ(lanczos.eigenvalues.size(), static_cast<size_t>(k));
  EXPECT_TRUE(lanczos.converged);
  for (int c = 0; c < k; ++c) {
    EXPECT_NEAR(lanczos.eigenvalues[c], 2.0, 1e-10) << "eigenvalue " << c;
  }

  const DenseMatrix& x = lanczos.eigenvectors;
  double worst_orth = 0.0;
  for (int a = 0; a < k; ++a) {
    for (int b = a; b < k; ++b) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) dot += x(i, a) * x(i, b);
      worst_orth = std::max(worst_orth, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(worst_orth, 1e-12);

  const double slack = 64.0 * 2.2e-16 * 2.0;  // a few ulps of ||A|| = 2
  std::vector<double> v(n);
  std::vector<double> av(n);
  for (int c = 0; c < k; ++c) {
    for (int i = 0; i < n; ++i) v[i] = x(i, c);
    op.Apply(v.data(), av.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      const double r = av[i] - lanczos.eigenvalues[c] * v[i];
      res += r * r;
    }
    EXPECT_LE(std::sqrt(res), 10.0 * lanczos.max_residual + slack)
        << "Ritz pair " << c << ", reported max_residual "
        << lanczos.max_residual;
  }
}

}  // namespace
}  // namespace roadpart
