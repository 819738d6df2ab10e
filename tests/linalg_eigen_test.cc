#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {
namespace {

// Residual ||A v - lambda v||_2 for each pair; returns the max.
double MaxResidual(const DenseMatrix& a, const EigenResult& eig) {
  const int n = a.rows();
  double worst = 0.0;
  std::vector<double> v(n);
  std::vector<double> av(n);
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    for (int i = 0; i < n; ++i) v[i] = eig.eigenvectors(i, static_cast<int>(j));
    a.Multiply(v.data(), av.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = av[i] - eig.eigenvalues[j] * v[i];
      res += r * r;
    }
    worst = std::max(worst, std::sqrt(res));
  }
  return worst;
}

double MaxOrthError(const EigenResult& eig) {
  const int n = eig.eigenvectors.rows();
  const int k = eig.eigenvectors.cols();
  double worst = 0.0;
  for (int a = 0; a < k; ++a) {
    for (int b = a; b < k; ++b) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) {
        dot += eig.eigenvectors(i, a) * eig.eigenvectors(i, b);
      }
      worst = std::max(worst, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  return worst;
}

DenseMatrix RandomSymmetric(int n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      double v = rng.NextGaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

// FNV-1a over the bit patterns of the eigenvalues, then the eigenvectors in
// row-major order: any change to a single output bit changes the value.
uint64_t BitsFingerprint(const EigenResult& eig) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (double v : eig.eigenvalues) mix(v);
  for (int r = 0; r < eig.eigenvectors.rows(); ++r) {
    for (int c = 0; c < eig.eigenvectors.cols(); ++c) {
      mix(eig.eigenvectors(r, c));
    }
  }
  return h;
}

// Fixed dense inputs: random, clustered (eigenvalues 1e-13 apart), and
// scaled to the edge of underflow.
std::vector<DenseMatrix> GoldenDenseInputs() {
  std::vector<DenseMatrix> inputs;
  inputs.push_back(RandomSymmetric(24, 7));
  DenseMatrix clustered(16, 16);
  Rng rng(8);
  for (int i = 0; i < 16; ++i) {
    clustered(i, i) = 1.0 + 1e-13 * (i % 4);
    if (i + 1 < 16) {
      double v = 1e-9 * rng.NextDouble();
      clustered(i, i + 1) = v;
      clustered(i + 1, i) = v;
    }
  }
  inputs.push_back(clustered);
  DenseMatrix tiny = RandomSymmetric(10, 9);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) tiny(i, j) *= 1e-300;
  }
  inputs.push_back(tiny);
  return inputs;
}

// Pins every output bit of both decompositions on fixed inputs, so a change
// of the QL routine (storage order, rotation kernel) must prove itself
// bit-identical rather than merely accurate.
TEST(EigenGoldenTest, SymmetricDecompositionBitsArePinned) {
  const std::vector<uint64_t> expected = {
      0xf9eac0f28a36db49ULL, 0xa10624ea9c418fa5ULL, 0x2e632719da11509dULL};
  std::vector<DenseMatrix> inputs = GoldenDenseInputs();
  ASSERT_EQ(inputs.size(), expected.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto eig = SymmetricEigenDecompose(inputs[i]);
    ASSERT_TRUE(eig.ok());
    EXPECT_EQ(BitsFingerprint(*eig), expected[i])
        << "dense input " << i << ": 0x" << std::hex << BitsFingerprint(*eig);
  }
}

TEST(EigenGoldenTest, TridiagonalDecompositionBitsArePinned) {
  const std::vector<uint64_t> expected = {
      0x9442176d5dd059aeULL, 0x88acfe5e86bb5ee0ULL, 0xb92f4f11572f7a76ULL};
  // Random, a Wilkinson-style clustered matrix (pairs of eigenvalues agree
  // to many digits), and a near-underflow scaling of the random one.
  Rng rng(10);
  std::vector<double> d(40);
  std::vector<double> e(39);
  for (double& v : d) v = rng.NextGaussian();
  for (double& v : e) v = rng.NextGaussian();
  const int w = 21;
  std::vector<double> wd(w);
  std::vector<double> we(w - 1, 1.0);
  for (int i = 0; i < w; ++i) wd[i] = std::fabs(10.0 - i);
  std::vector<double> td = d;
  std::vector<double> te = e;
  for (double& v : td) v *= 1e-300;
  for (double& v : te) v *= 1e-300;
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      inputs = {{d, e}, {wd, we}, {td, te}};
  ASSERT_EQ(inputs.size(), expected.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto eig = TridiagonalEigenDecompose(inputs[i].first, inputs[i].second);
    ASSERT_TRUE(eig.ok());
    EXPECT_EQ(BitsFingerprint(*eig), expected[i])
        << "tridiagonal input " << i << ": 0x" << std::hex
        << BitsFingerprint(*eig);
  }
}

TEST(SymmetricEigenTest, Diagonal) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  ASSERT_EQ(eig->eigenvalues.size(), 3u);
  EXPECT_NEAR(eig->eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 3.0, 1e-12);
}

TEST(SymmetricEigenTest, TwoByTwoAnalytic) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
  EXPECT_LT(MaxResidual(a, *eig), 1e-12);
}

TEST(SymmetricEigenTest, PathGraphLaplacianSpectrum) {
  // Laplacian of the path P4: eigenvalues 2 - 2cos(pi k / 4), k = 0..3.
  const int n = 4;
  DenseMatrix l(n, n);
  for (int i = 0; i + 1 < n; ++i) {
    l(i, i) += 1.0;
    l(i + 1, i + 1) += 1.0;
    l(i, i + 1) -= 1.0;
    l(i + 1, i) -= 1.0;
  }
  auto eig = SymmetricEigenDecompose(l);
  ASSERT_TRUE(eig.ok());
  for (int k = 0; k < n; ++k) {
    double expected = 2.0 - 2.0 * std::cos(M_PI * k / n);
    EXPECT_NEAR(eig->eigenvalues[k], expected, 1e-10);
  }
}

TEST(SymmetricEigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigenDecompose(DenseMatrix(2, 3)).ok());
}

TEST(SymmetricEigenTest, RejectsAsymmetric) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 5.0;
  EXPECT_FALSE(SymmetricEigenDecompose(a).ok());
}

TEST(SymmetricEigenTest, EmptyMatrix) {
  auto eig = SymmetricEigenDecompose(DenseMatrix(0, 0));
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->eigenvalues.empty());
}

TEST(SymmetricEigenTest, OneByOne) {
  DenseMatrix a(1, 1);
  a(0, 0) = -7.5;
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], -7.5, 1e-14);
  EXPECT_NEAR(std::fabs(eig->eigenvectors(0, 0)), 1.0, 1e-14);
}

TEST(SymmetricEigenTest, TraceAndFrobeniusInvariants) {
  DenseMatrix a = RandomSymmetric(20, 99);
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  double trace = 0.0;
  double frob = 0.0;
  for (int i = 0; i < 20; ++i) {
    trace += a(i, i);
    for (int j = 0; j < 20; ++j) frob += a(i, j) * a(i, j);
  }
  double eig_sum = 0.0;
  double eig_sq = 0.0;
  for (double l : eig->eigenvalues) {
    eig_sum += l;
    eig_sq += l * l;
  }
  EXPECT_NEAR(trace, eig_sum, 1e-9);
  EXPECT_NEAR(frob, eig_sq, 1e-8);
}

// Property sweep: random symmetric matrices of many orders decompose with
// tiny residuals and orthonormal vectors.
class SymmetricEigenSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenSweep, ResidualAndOrthogonality) {
  const int n = GetParam();
  DenseMatrix a = RandomSymmetric(n, 1000 + n);
  auto eig = SymmetricEigenDecompose(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->converged);
  ASSERT_EQ(static_cast<int>(eig->eigenvalues.size()), n);
  // Eigenvalues ascending.
  for (size_t i = 1; i < eig->eigenvalues.size(); ++i) {
    EXPECT_LE(eig->eigenvalues[i - 1], eig->eigenvalues[i]);
  }
  double scale = std::max(std::fabs(eig->eigenvalues.front()),
                          std::fabs(eig->eigenvalues.back()));
  EXPECT_LT(MaxResidual(a, *eig), 1e-10 * std::max(scale, 1.0) * n);
  EXPECT_LT(MaxOrthError(*eig), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Orders, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(TridiagonalEigenTest, MatchesDenseSolver) {
  // Tridiagonal with diag 2, subdiag -1 (discrete Laplacian): compare paths.
  const int n = 12;
  std::vector<double> d(n, 2.0);
  std::vector<double> e(n - 1, -1.0);
  auto tri = TridiagonalEigenDecompose(d, e);
  ASSERT_TRUE(tri.ok());
  for (int k = 1; k <= n; ++k) {
    double expected = 2.0 - 2.0 * std::cos(M_PI * k / (n + 1));
    EXPECT_NEAR(tri->eigenvalues[k - 1], expected, 1e-10);
  }
}

TEST(TridiagonalEigenTest, RejectsBadSubdiagonal) {
  EXPECT_FALSE(TridiagonalEigenDecompose({1.0, 2.0}, {0.5, 0.5}).ok());
}

TEST(TridiagonalEigenTest, TrackedRowsMatchFullDecompositionBits) {
  Rng rng(12);
  std::vector<double> d(30);
  std::vector<double> e(29);
  for (double& v : d) v = rng.NextGaussian();
  for (double& v : e) v = rng.NextGaussian();
  auto full = TridiagonalEigenDecompose(d, e);
  auto rows = TridiagonalEigenRows(d, e, {29, 0, 7});
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->eigenvalues, full->eigenvalues);
  ASSERT_EQ(rows->eigenvectors.rows(), 3);
  ASSERT_EQ(rows->eigenvectors.cols(), 30);
  const int tracked[] = {29, 0, 7};
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 30; ++j) {
      EXPECT_EQ(rows->eigenvectors(t, j), full->eigenvectors(tracked[t], j));
    }
  }
  EXPECT_FALSE(TridiagonalEigenRows(d, e, {30}).ok());
}

// Max |(T - theta_j) z_j| over the columns, and max |Z^T Z - I|.
void InverseIterationErrors(const std::vector<double>& d,
                            const std::vector<double>& e,
                            const std::vector<double>& theta,
                            const DenseMatrix& z, double* residual,
                            double* orth) {
  const int n = static_cast<int>(d.size());
  const int k = static_cast<int>(theta.size());
  *residual = 0.0;
  *orth = 0.0;
  for (int j = 0; j < k; ++j) {
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = (d[i] - theta[j]) * z(i, j);
      if (i > 0) r += e[i - 1] * z(i - 1, j);
      if (i + 1 < n) r += e[i] * z(i + 1, j);
      sq += r * r;
    }
    *residual = std::max(*residual, std::sqrt(sq));
    for (int c = j; c < k; ++c) {
      double dot = 0.0;
      for (int i = 0; i < n; ++i) dot += z(i, j) * z(i, c);
      *orth = std::max(*orth, std::fabs(dot - (c == j ? 1.0 : 0.0)));
    }
  }
}

TEST(TridiagonalEigenTest, InverseIterationMatchesQLVectors) {
  Rng rng(13);
  const int n = 60;
  std::vector<double> d(n);
  std::vector<double> e(n - 1);
  for (double& v : d) v = rng.NextGaussian();
  for (double& v : e) v = rng.NextGaussian();
  auto full = TridiagonalEigenDecompose(d, e);
  ASSERT_TRUE(full.ok());
  auto z = TridiagonalInverseIteration(d, e, full->eigenvalues);
  ASSERT_TRUE(z.ok());
  double residual;
  double orth;
  InverseIterationErrors(d, e, full->eigenvalues, *z, &residual, &orth);
  EXPECT_LT(residual, 1e-13);
  EXPECT_LT(orth, 1e-13);
  // Well-separated eigenvalues: the same vectors as QL, up to sign.
  for (int j = 0; j < n; ++j) {
    double dot = 0.0;
    for (int i = 0; i < n; ++i) dot += (*z)(i, j) * full->eigenvectors(i, j);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-10) << "eigenvector " << j;
  }
}

TEST(TridiagonalEigenTest, InverseIterationSeparatesClusters) {
  // Wilkinson W21+: its largest eigenvalues come in pairs that agree to
  // ~1e-14. Two identical blocks joined by a zero coupling: every eigenvalue
  // is exactly double. Both need perturbed shifts and reorthogonalization.
  const int w = 21;
  std::vector<double> wd(w);
  std::vector<double> we(w - 1, 1.0);
  for (int i = 0; i < w; ++i) wd[i] = std::fabs(10.0 - i);
  std::vector<double> bd = {1.0, 2.0, 3.0, 1.0, 2.0, 3.0};
  std::vector<double> be = {0.5, 0.25, 0.0, 0.5, 0.25};
  for (const auto& [d, e] : {std::make_pair(wd, we), std::make_pair(bd, be)}) {
    auto full = TridiagonalEigenDecompose(d, e);
    ASSERT_TRUE(full.ok());
    const int n = static_cast<int>(d.size());
    // The top six (three exact or near pairs), as the solver asks for them.
    std::vector<double> theta(full->eigenvalues.end() - 6,
                              full->eigenvalues.end());
    auto z = TridiagonalInverseIteration(d, e, theta);
    ASSERT_TRUE(z.ok());
    ASSERT_EQ(z->rows(), n);
    double residual;
    double orth;
    InverseIterationErrors(d, e, theta, *z, &residual, &orth);
    EXPECT_LT(residual, 1e-13) << "order " << n;
    EXPECT_LT(orth, 1e-13) << "order " << n;
  }
}

TEST(TridiagonalEigenTest, InverseIterationOnZeroMatrix) {
  // Every vector is an eigenvector; the result must still be orthonormal.
  const std::vector<double> d(4, 0.0);
  const std::vector<double> e(3, 0.0);
  const std::vector<double> theta(3, 0.0);
  auto z = TridiagonalInverseIteration(d, e, theta);
  ASSERT_TRUE(z.ok());
  double residual;
  double orth;
  InverseIterationErrors(d, e, theta, *z, &residual, &orth);
  EXPECT_EQ(residual, 0.0);
  EXPECT_LT(orth, 1e-14);
}

TEST(TridiagonalEigenTest, InverseIterationRejectsBadInput) {
  EXPECT_FALSE(TridiagonalInverseIteration({1.0, 2.0}, {0.5, 0.5}, {1.0}).ok());
  EXPECT_FALSE(
      TridiagonalInverseIteration({1.0, 2.0}, {0.5}, {2.0, 1.0}).ok());
}

}  // namespace
}  // namespace roadpart
