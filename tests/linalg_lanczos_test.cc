#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/spectral_common.h"
#include "linalg/gram_schmidt.h"
#include "linalg/lanczos.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {
namespace {

// Sparse symmetric "ring + random chords" test matrix.
SparseMatrix RingMatrix(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> upper;
  for (int i = 0; i < n; ++i) {
    upper.push_back({i, (i + 1) % n, 1.0 + rng.NextDouble()});
  }
  for (int c = 0; c < n / 4; ++c) {
    int a = static_cast<int>(rng.NextBounded(n));
    int b = static_cast<int>(rng.NextBounded(n));
    if (a != b) upper.push_back({std::min(a, b), std::max(a, b), rng.NextDouble()});
  }
  return SparseMatrix::SymmetricFromTriplets(n, upper).value();
}

TEST(LanczosTest, DiagonalSmallest) {
  auto m = SparseMatrix::FromTriplets(
      5, 5,
      {{0, 0, 5.0}, {1, 1, 1.0}, {2, 2, 3.0}, {3, 3, -2.0}, {4, 4, 10.0}});
  ASSERT_TRUE(m.ok());
  SparseOperator op(*m);
  auto eig = LanczosEigen(op, 2, SpectrumEnd::kSmallest);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  EXPECT_NEAR(eig->eigenvalues[0], -2.0, 1e-8);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-8);
}

TEST(LanczosTest, DiagonalLargest) {
  auto m = SparseMatrix::FromTriplets(
      4, 4, {{0, 0, 5.0}, {1, 1, 1.0}, {2, 2, 3.0}, {3, 3, 10.0}});
  ASSERT_TRUE(m.ok());
  SparseOperator op(*m);
  auto eig = LanczosEigen(op, 2, SpectrumEnd::kLargest);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-8);
  EXPECT_NEAR(eig->eigenvalues[1], 10.0, 1e-8);
}

TEST(LanczosTest, InvalidK) {
  auto m = SparseMatrix::FromTriplets(3, 3, {{0, 0, 1.0}});
  ASSERT_TRUE(m.ok());
  SparseOperator op(*m);
  EXPECT_FALSE(LanczosEigen(op, 0, SpectrumEnd::kSmallest).ok());
  EXPECT_FALSE(LanczosEigen(op, 4, SpectrumEnd::kSmallest).ok());
}

TEST(LanczosTest, FullSpectrumSmallMatrix) {
  // k == n: Lanczos spans the whole space and must be exact.
  SparseMatrix m = RingMatrix(8, 3);
  SparseOperator op(m);
  auto lanczos = LanczosEigen(op, 8, SpectrumEnd::kSmallest);
  ASSERT_TRUE(lanczos.ok());
  auto dense = SymmetricEigenDecompose(m.ToDense());
  ASSERT_TRUE(dense.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(lanczos->eigenvalues[i], dense->eigenvalues[i], 1e-8);
  }
}

class LanczosSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LanczosSweep, AgreesWithDenseSolver) {
  const int n = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  SparseMatrix m = RingMatrix(n, 100 + n);
  SparseOperator op(m);

  auto lanczos = LanczosEigen(op, k, SpectrumEnd::kSmallest);
  ASSERT_TRUE(lanczos.ok());
  auto dense = SymmetricEigenDecompose(m.ToDense());
  ASSERT_TRUE(dense.ok());
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos->eigenvalues[i], dense->eigenvalues[i], 1e-6)
        << "eigenvalue " << i << " of n=" << n;
  }

  // Residual check on the returned vectors.
  std::vector<double> v(n);
  std::vector<double> av(n);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n; ++i) v[i] = lanczos->eigenvectors(i, j);
    op.Apply(v.data(), av.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = av[i] - lanczos->eigenvalues[j] * v[i];
      res += r * r;
    }
    EXPECT_LT(std::sqrt(res), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LanczosSweep,
    ::testing::Values(std::make_tuple(30, 2), std::make_tuple(50, 4),
                      std::make_tuple(80, 6), std::make_tuple(120, 8),
                      std::make_tuple(200, 5), std::make_tuple(300, 10)));

TEST(LanczosTest, RankOneAlphaCutOperator) {
  // The alpha-Cut operator M = d d^T / s - A applied through Lanczos must
  // match the dense decomposition of the materialized matrix.
  SparseMatrix a = RingMatrix(60, 42);
  SparseOperator a_op(a);
  std::vector<double> d = a.RowSums();
  double s = 0.0;
  for (double x : d) s += x;
  RankOneUpdatedOperator m_op(a_op, d, 1.0 / s, -1.0);

  auto lanczos = LanczosEigen(m_op, 4, SpectrumEnd::kSmallest);
  ASSERT_TRUE(lanczos.ok());
  auto dense = SymmetricEigenDecompose(Materialize(m_op));
  ASSERT_TRUE(dense.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(lanczos->eigenvalues[i], dense->eigenvalues[i], 1e-6);
  }
}

TEST(LanczosTest, DisconnectedGraphHandlesBreakdown) {
  // Two disjoint triangles: invariant subspaces force Lanczos restarts.
  std::vector<Triplet> upper;
  for (int base : {0, 3}) {
    upper.push_back({base, base + 1, 1.0});
    upper.push_back({base + 1, base + 2, 1.0});
    upper.push_back({base, base + 2, 1.0});
  }
  SparseMatrix m = SparseMatrix::SymmetricFromTriplets(6, upper).value();
  SparseOperator op(m);
  auto eig = LanczosEigen(op, 3, SpectrumEnd::kLargest);
  ASSERT_TRUE(eig.ok());
  // Each triangle has top eigenvalue 2 (multiplicity 2 overall).
  EXPECT_NEAR(eig->eigenvalues[2], 2.0, 1e-7);
  EXPECT_NEAR(eig->eigenvalues[1], 2.0, 1e-7);
}

// Forwards to a base operator and counts the applications.
class CountingOperator : public LinearOperator {
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

// Operator applies per filtered Lanczos step: lanczos.cc's kFilterDegree.
// Past a missed 120-row plain checkpoint a solve costs 120 applies, then
// kFilterDegree per filtered row and k per filtered checkpoint.
constexpr int kFilterDegree = 32;

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(LanczosTest, ZeroOperatorGivesOrthonormalVectors) {
  // Every vector is an eigenvector of the zero operator: the factorization
  // breaks down at every step and T is all zeros, yet the Ritz vectors must
  // be finite and orthonormal.
  auto m = SparseMatrix::FromTriplets(5, 5, {});
  ASSERT_TRUE(m.ok());
  SparseOperator op(*m);
  auto eig = LanczosEigen(op, 2, SpectrumEnd::kSmallest);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  for (int a = 0; a < 2; ++a) {
    EXPECT_EQ(eig->eigenvalues[a], 0.0);
    for (int b = a; b < 2; ++b) {
      double dot = 0.0;
      for (int i = 0; i < 5; ++i) {
        dot += eig->eigenvectors(i, a) * eig->eigenvectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-12) << a << "," << b;
    }
  }
}

TEST(LanczosTest, CheckpointsGrowOneFactorization) {
  // A zero tolerance is never met, so the solve climbs every checkpoint:
  // plain 60 -> 120, then filtered 60 -> 120 -> 240 (the cap). Each
  // factorization grows in place, so the operator runs once per plain row
  // and kFilterDegree times per filtered row — 120 + 240 rows, not
  // 60 + 120 + 60 + 120 + 240 — plus k per filtered checkpoint.
  SparseMatrix m = RingMatrix(320, 5);
  SparseOperator base(m);
  CountingOperator op(base);
  LanczosOptions options;
  options.tolerance = 0.0;
  options.max_subspace = 240;
  options.max_restarts = 4;
  auto eig = LanczosEigen(op, 4, SpectrumEnd::kSmallest, options);
  ASSERT_TRUE(eig.ok());
  EXPECT_FALSE(eig->converged);
  EXPECT_EQ(eig->restarts_used, 4);
  EXPECT_EQ(op.applies(), 120 + kFilterDegree * 240 + 3 * 4);
  // The best-of estimate is still a usable set of Ritz pairs.
  auto dense = SymmetricEigenDecompose(m.ToDense());
  ASSERT_TRUE(dense.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(eig->eigenvalues[i], dense->eigenvalues[i], 1e-8);
  }
}

TEST(LanczosTest, WarmStartOrthogonalToTargetStillConverges) {
  // The warm vector has no component along the k wanted eigenvectors, so
  // its Krylov space cannot find them: the first checkpoint misses, the
  // warm factorization is discarded, and a cold one from the seeded rng
  // grows on (it misses at 120 rows on this clustered spectrum, so the
  // filtered factorization converges to the right pairs).
  const int n = 400;
  const int k = 4;
  SparseMatrix m = RingMatrix(n, 17);
  SparseOperator base(m);
  auto dense = SymmetricEigenDecompose(m.ToDense());
  ASSERT_TRUE(dense.ok());
  std::vector<double> warm(n);
  Rng rng(3);
  for (double& x : warm) x = rng.NextDouble() - 0.5;
  for (int pass = 0; pass < 2; ++pass) {
    for (int c = 0; c < k; ++c) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) dot += warm[i] * dense->eigenvectors(i, c);
      for (int i = 0; i < n; ++i) warm[i] -= dot * dense->eigenvectors(i, c);
    }
  }

  CountingOperator op(base);
  LanczosOptions options;
  options.warm_start = &warm;
  auto eig = LanczosEigen(op, k, SpectrumEnd::kSmallest, options);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(eig->eigenvalues[i], dense->eigenvalues[i], 1e-8)
        << "eigenvalue " << i;
  }
  // Checkpoints: warm 60, cold 120, filtered 60. The discarded warm
  // factorization cost exactly its first checkpoint.
  EXPECT_EQ(eig->restarts_used, 2);
  EXPECT_EQ(op.applies(), 60 + 120 + kFilterDegree * 60 + k);
}

TEST(LanczosTest, RetryRungResumesTheMissedFactorization) {
  // A 100-row budget genuinely misses tolerance on this clustered spectrum
  // (no fault injection): rung 1 checks at 60 and 100 rows. The retry rung
  // resumes that factorization on the doubling schedule and checks it at
  // 120 rows; that misses too, so it grows the filtered factorization,
  // which converges at its first checkpoint (60 rows). Its vectors are
  // those of one 200-row-budget solve from the same seed (checkpoints 60,
  // 120, filtered 60), at the same operator-apply count.
  const int n = 600;
  const int k = 4;
  SparseMatrix m = RingMatrix(n, 9);
  SparseOperator base(m);
  SpectralOptions options;
  options.dense_threshold = 0;
  options.lanczos.max_subspace = 100;
  options.on_nonconvergence = NonConvergencePolicy::kRetry;
  CountingOperator laddered(base);
  EigenSolveDiagnostics diagnostics;
  auto ladder = ExtremeEigenvectors(laddered, k, SpectrumEnd::kSmallest,
                                    options, &diagnostics);
  ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
  EXPECT_EQ(diagnostics.solver_path, SolverPath::kLanczosRetry);
  EXPECT_TRUE(diagnostics.all_converged);
  EXPECT_EQ(diagnostics.lanczos_restarts, 3);  // 100, 120, filtered 60

  LanczosOptions once = options.lanczos;
  once.max_subspace = 200;
  CountingOperator single(base);
  auto direct = LanczosEigen(single, k, SpectrumEnd::kSmallest, once);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->converged);
  EXPECT_EQ(direct->restarts_used, 2);  // 120, filtered 60
  EXPECT_TRUE(SameBits(ladder->data(), direct->eigenvectors.data()));
  EXPECT_EQ(single.applies(), 120 + kFilterDegree * 60 + k);
  EXPECT_EQ(laddered.applies(), single.applies());
}

// A weighted path Laplacian: both ends of its spectrum are runs of
// eigenvalues about (pi / n)^2 apart on a spectrum of width ~6, so plain
// Lanczos misses its 120-row checkpoint there and the solver switches to
// the Chebyshev-filtered factorization.
SparseMatrix PathLaplacian(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> upper;
  std::vector<double> degree(n, 0.0);
  for (int i = 0; i + 1 < n; ++i) {
    const double w = 1.0 + 0.5 * rng.NextDouble();
    upper.push_back({i, i + 1, -w});
    degree[i] += w;
    degree[i + 1] += w;
  }
  for (int i = 0; i < n; ++i) upper.push_back({i, i, degree[i]});
  return SparseMatrix::SymmetricFromTriplets(n, upper).value();
}

// Column c of an n x k matrix.
std::vector<double> Column(const DenseMatrix& x, int c) {
  std::vector<double> v(x.rows());
  for (int r = 0; r < x.rows(); ++r) v[r] = x(r, c);
  return v;
}

TEST(LanczosFilterTest, PlainFactorizationMissesItsSecondCheckpoint) {
  // The premise of the filtered tests below: 120 plain rows are not enough
  // at either end of this spectrum.
  SparseMatrix m = PathLaplacian(700, 4);
  SparseOperator op(m);
  for (SpectrumEnd end : {SpectrumEnd::kSmallest, SpectrumEnd::kLargest}) {
    LanczosSolver solver(op, 5, end, LanczosOptions{});
    ASSERT_TRUE(solver.Run(120, 1).ok());
    EXPECT_FALSE(solver.converged());
  }
}

TEST(LanczosFilterTest, FilteredSolveMatchesDenseAtBothEnds) {
  const int n = 700;
  const int k = 5;
  SparseMatrix m = PathLaplacian(n, 4);
  SparseOperator base(m);
  auto dense = SymmetricEigenDecompose(m.ToDense());
  ASSERT_TRUE(dense.ok());
  for (SpectrumEnd end : {SpectrumEnd::kSmallest, SpectrumEnd::kLargest}) {
    const bool smallest = end == SpectrumEnd::kSmallest;
    CountingOperator op(base);
    auto eig = LanczosEigen(op, k, end);
    ASSERT_TRUE(eig.ok());
    EXPECT_TRUE(eig->converged);
    // Past the 120 plain rows, every step costs kFilterDegree applies.
    EXPECT_GT(op.applies(), 120 + kFilterDegree * 60);
    for (int i = 0; i < k; ++i) {
      const int j = smallest ? i : n - k + i;
      EXPECT_NEAR(eig->eigenvalues[i], dense->eigenvalues[j], 1e-8)
          << "eigenvalue " << i << (smallest ? " smallest" : " largest");
    }
    // Span: every wanted dense eigenvector lies in the returned subspace.
    for (int i = 0; i < k; ++i) {
      const int j = smallest ? i : n - k + i;
      const std::vector<double> u = Column(dense->eigenvectors, j);
      double inside = 0.0;
      for (int c = 0; c < k; ++c) {
        const double d = Dot(Column(eig->eigenvectors, c), u);
        inside += d * d;
      }
      EXPECT_NEAR(inside, 1.0, 1e-10) << "dense eigenvector " << j;
    }
  }
}

TEST(LanczosFilterTest, ForwardingDecoratorGivesIdenticalBits) {
  // The filter reaches the operator only through Apply, so wrapping it in a
  // forwarding decorator (as perfbench's traced replay does) changes no bit.
  SparseMatrix m = PathLaplacian(700, 4);
  SparseOperator base(m);
  CountingOperator wrapped(base);
  for (SpectrumEnd end : {SpectrumEnd::kSmallest, SpectrumEnd::kLargest}) {
    auto direct = LanczosEigen(base, 5, end);
    auto decorated = LanczosEigen(wrapped, 5, end);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(decorated.ok());
    EXPECT_TRUE(SameBits(direct->eigenvalues, decorated->eigenvalues));
    EXPECT_TRUE(SameBits(direct->eigenvectors.data(),
                         decorated->eigenvectors.data()));
    EXPECT_EQ(direct->max_residual, decorated->max_residual);
    EXPECT_EQ(direct->restarts_used, decorated->restarts_used);
  }
  EXPECT_GT(wrapped.applies(), 2 * (120 + kFilterDegree * 60));
}

TEST(LanczosFilterTest, SplitBudgetEqualsOneRun) {
  // Run(200) then Run(400) against one Run(400), with a zero tolerance so
  // the filtered factorization grows through both calls: plain checkpoints
  // 60 and 120, then filtered ones at 60 and 120 in the first call and at
  // 240 and 400 in the second. Same checkpoints, same bits, same applies.
  SparseMatrix m = PathLaplacian(700, 4);
  SparseOperator base(m);
  LanczosOptions options;
  options.tolerance = 0.0;
  const int k = 5;

  CountingOperator split_op(base);
  LanczosSolver split(split_op, k, SpectrumEnd::kSmallest, options);
  ASSERT_TRUE(split.Run(200, 3).ok());
  EXPECT_EQ(split_op.applies(), 120 + kFilterDegree * 120 + 2 * k);
  ASSERT_TRUE(split.Run(400, 3).ok());
  auto split_eig = split.Eigenpairs();
  ASSERT_TRUE(split_eig.ok());

  CountingOperator once_op(base);
  LanczosSolver once(once_op, k, SpectrumEnd::kSmallest, options);
  ASSERT_TRUE(once.Run(400, 5).ok());
  auto once_eig = once.Eigenpairs();
  ASSERT_TRUE(once_eig.ok());

  EXPECT_FALSE(once_eig->converged);
  EXPECT_EQ(split_eig->restarts_used, 5);
  EXPECT_EQ(once_eig->restarts_used, 5);
  EXPECT_EQ(once_op.applies(), 120 + kFilterDegree * 400 + 4 * k);
  EXPECT_EQ(split_op.applies(), once_op.applies());
  EXPECT_TRUE(SameBits(split_eig->eigenvalues, once_eig->eigenvalues));
  EXPECT_TRUE(SameBits(split_eig->eigenvectors.data(),
                       once_eig->eigenvectors.data()));
  EXPECT_EQ(split_eig->max_residual, once_eig->max_residual);
}

TEST(LanczosFilterTest, ZeroToleranceReturnsRayleighQuotientsOfTheOperator) {
  // A zero tolerance is never met: the solve returns its best checkpoint,
  // unconverged. Past the switch that is a Rayleigh-Ritz result of the
  // operator itself, so each eigenvalue is the Rayleigh quotient of its
  // vector and max_residual the worst true residual ||A z - theta z||, not
  // the filter's. At this order two filtered checkpoints leave a residual
  // of ~1e-3, far above rounding, so the comparison is a real one.
  const int n = 3000;
  const int k = 5;
  SparseMatrix m = PathLaplacian(n, 4);
  SparseOperator base(m);
  CountingOperator op(base);
  LanczosOptions options;
  options.tolerance = 0.0;
  auto eig = LanczosEigen(op, k, SpectrumEnd::kSmallest, options);
  ASSERT_TRUE(eig.ok());
  EXPECT_FALSE(eig->converged);
  EXPECT_EQ(eig->restarts_used, 3);  // plain 60, 120; filtered 60, 120
  EXPECT_EQ(op.applies(), 120 + kFilterDegree * 120 + 2 * k);
  std::vector<double> az(n);
  double worst = 0.0;
  for (int c = 0; c < k; ++c) {
    const std::vector<double> z = Column(eig->eigenvectors, c);
    base.Apply(z.data(), az.data());
    EXPECT_NEAR(eig->eigenvalues[c], Dot(z, az) / Dot(z, z), 1e-13)
        << "pair " << c;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
      const double r = az[i] - eig->eigenvalues[c] * z[i];
      sq += r * r;
    }
    worst = std::max(worst, std::sqrt(sq));
  }
  EXPECT_GT(worst, 1e-6);
  EXPECT_NEAR(eig->max_residual, worst, 1e-6 * worst);
}

// The scalar Gram-Schmidt pass the vectorized kernels replaced, kept as
// their bit-exact oracle: projections four rows at a time, each a serial
// sum in index order, then the updates with each element's rows applied in
// order.
void ScalarGramSchmidtPass(const std::vector<double>& basis, int m, int n,
                           std::vector<double>* w, std::vector<double>* h) {
  h->assign(m, 0.0);
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* v0 = basis.data() + static_cast<size_t>(j) * n;
    const double* v1 = v0 + n;
    const double* v2 = v1 + n;
    const double* v3 = v2 + n;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (int i = 0; i < n; ++i) {
      const double x = (*w)[i];
      s0 += v0[i] * x;
      s1 += v1[i] * x;
      s2 += v2[i] * x;
      s3 += v3[i] * x;
    }
    (*h)[j] = s0;
    (*h)[j + 1] = s1;
    (*h)[j + 2] = s2;
    (*h)[j + 3] = s3;
  }
  for (; j < m; ++j) {
    const double* v = basis.data() + static_cast<size_t>(j) * n;
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += v[i] * (*w)[i];
    (*h)[j] = s;
  }
  int r = 0;
  for (; r + 4 <= m; r += 4) {
    const double* v0 = basis.data() + static_cast<size_t>(r) * n;
    const double* v1 = v0 + n;
    const double* v2 = v1 + n;
    const double* v3 = v2 + n;
    for (int i = 0; i < n; ++i) {
      (*w)[i] = (*w)[i] - (*h)[r] * v0[i] - (*h)[r + 1] * v1[i] -
                (*h)[r + 2] * v2[i] - (*h)[r + 3] * v3[i];
    }
  }
  for (; r < m; ++r) {
    const double* v = basis.data() + static_cast<size_t>(r) * n;
    for (int i = 0; i < n; ++i) (*w)[i] -= (*h)[r] * v[i];
  }
}

// Entries spread over many binades, so any reordered sum or update shows up
// in the low bits.
std::vector<double> RandomEntries(size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (double& x : v) {
    x = std::ldexp(rng.NextDouble() - 0.5, static_cast<int>(rng.NextBounded(9)));
  }
  return v;
}

TEST(GramSchmidtKernelTest, MatchesScalarOracleBitForBit) {
  Rng rng(2024);
  for (int m : {0, 1, 7, 8, 9, 63, 480}) {
    for (int n : {1, 2, 3, 800, 4097}) {
      const std::vector<double> basis =
          RandomEntries(static_cast<size_t>(m) * n, rng);
      const std::vector<double> w_in = RandomEntries(n, rng);
      std::vector<double> w_ref = w_in;
      std::vector<double> h_ref;
      ScalarGramSchmidtPass(basis, m, n, &w_ref, &h_ref);

      // The same rows as one contiguous chunk and in chunks of 8 and 64
      // rows (each chunk a separate allocation).
      for (int chunk_rows : {0, 8, 64}) {
        std::vector<std::vector<double>> storage;
        std::vector<const double*> chunks;
        if (chunk_rows == 0) {
          chunk_rows = (m / 8 + 1) * 8;
          chunks.push_back(basis.data());
        } else {
          for (int j = 0; j < m; j += chunk_rows) {
            const size_t rows = std::min(chunk_rows, m - j);
            storage.emplace_back(basis.begin() + static_cast<size_t>(j) * n,
                                 basis.begin() + (j + rows) * n);
            chunks.push_back(storage.back().data());
          }
        }
        // At 3 threads the larger shapes really split both phases (row
        // groups of the projection, element blocks of the update).
        for (int threads : {1, 3}) {
          ScopedParallelism scoped(threads);
          std::vector<double> w = w_in;
          std::vector<double> h(m, -1.0);
          GramSchmidtPass(chunks.data(), chunk_rows, m, n, w.data(), h.data());
          const std::string where =
              "m=" + std::to_string(m) + " n=" + std::to_string(n) +
              " chunk_rows=" + std::to_string(chunk_rows) +
              " threads=" + std::to_string(threads);
          EXPECT_TRUE(SameBits(h, h_ref)) << where;
          EXPECT_TRUE(SameBits(w, w_ref)) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace roadpart
