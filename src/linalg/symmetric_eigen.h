#ifndef ROADPART_LINALG_SYMMETRIC_EIGEN_H_
#define ROADPART_LINALG_SYMMETRIC_EIGEN_H_

#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace roadpart {

/// Eigenvalues (ascending) and matching eigenvectors (columns of
/// `eigenvectors`, orthonormal).
struct EigenResult {
  std::vector<double> eigenvalues;
  DenseMatrix eigenvectors;
  bool converged = true;
  double max_residual = 0.0;
  /// Lanczos convergence checkpoints passed after the first (0 for dense
  /// and tridiagonal solves); surfaced in RunDiagnostics as restarts.
  int restarts_used = 0;
};

/// Full eigen-decomposition of a real symmetric matrix via Householder
/// tridiagonalization followed by implicit-shift QL iteration — the same
/// "reduce to condensed form, decompose, transform back" scheme the paper
/// cites from Dongarra et al. [3]. O(n^3) time, O(n^2) space.
///
/// `a` must be square and symmetric (tolerated asymmetry ~1e-9 relative); the
/// solver works on (A + A^T)/2.
Result<EigenResult> SymmetricEigenDecompose(const DenseMatrix& a);

/// Eigen-decomposition of a symmetric tridiagonal matrix given its diagonal
/// `d` (n values) and sub-diagonal `e` (n-1 values). Exposed for tests; the
/// same as TridiagonalEigenRows tracking every row.
Result<EigenResult> TridiagonalEigenDecompose(const std::vector<double>& d,
                                              const std::vector<double>& e);

/// The eigenvalues of the symmetric tridiagonal (d, e) — bit-identical to
/// TridiagonalEigenDecompose's — with only the listed rows of the eigenvector
/// matrix: `eigenvectors` is rows.size() x n, and eigenvectors(t, j) is
/// component rows[t] of the j-th eigenvector. One implicit-shift QL routine
/// serves every decomposition in this header; it applies its rotations to
/// the tracked rows alone, so the cost is O(n^2 (1 + rows.size())) instead
/// of O(n^3). The Lanczos convergence test tracks just the last row.
Result<EigenResult> TridiagonalEigenRows(const std::vector<double>& d,
                                         const std::vector<double>& e,
                                         const std::vector<int>& rows);

/// Eigenvectors of the symmetric tridiagonal (d, e) for the given eigenvalues
/// (ascending; typically a run taken from TridiagonalEigenRows), as the
/// orthonormal columns of an n x eigenvalues.size() matrix, each signed so
/// its largest-magnitude component is positive. Inverse iteration in the
/// style of LAPACK dstein: per eigenvalue a pivoted LU factorization of
/// T - theta I and up to five O(n) solves from a fixed pseudo-random start;
/// eigenvalues equal to working precision get slightly perturbed shifts, and
/// vectors whose eigenvalues lie within 1e-3 ||T||_1 of each other are
/// reorthogonalized by modified Gram-Schmidt. No n x n matrix is formed.
Result<DenseMatrix> TridiagonalInverseIteration(
    const std::vector<double>& d, const std::vector<double>& e,
    const std::vector<double>& eigenvalues);

}  // namespace roadpart

#endif  // ROADPART_LINALG_SYMMETRIC_EIGEN_H_
