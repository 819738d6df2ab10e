#ifndef ROADPART_LINALG_LANCZOS_H_
#define ROADPART_LINALG_LANCZOS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/linear_operator.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {

/// Options for the Lanczos solver.
struct LanczosOptions {
  /// Hard cap on the Krylov dimension the factorization grows to; clamped to
  /// the operator order.
  int max_subspace = 400;
  /// Convergence threshold on the Ritz residual |beta_m * s_mi| relative to
  /// the spectral scale.
  double tolerance = 1e-9;
  /// Seed for the random start vector.
  uint64_t seed = 12345;
  /// Number of convergence checkpoints after the first (each at twice the
  /// previous Krylov dimension, up to max_subspace) before giving up.
  int max_restarts = 3;
  /// Optional warm start: a non-owning pointer to a start vector carried over
  /// from a previous, similar solve (e.g. the first embedding column of the
  /// last interval in the incremental repartitioner). It seeds the first
  /// factorization only: if that misses its first checkpoint it is discarded
  /// once and the rest of the ladder grows a cold factorization from the
  /// seeded rng, so a bad warm vector costs at most one checkpoint and cannot
  /// poison the whole ladder. Silently ignored unless it has exactly the
  /// operator's dimension, is entirely finite, and has a positive norm. An
  /// accelerator, not a semantic knob: the solve converges to the same
  /// eigenpairs within tolerance, it just takes a different (usually much
  /// shorter) iteration path. Deterministic: the same warm vector always
  /// yields the same bits at every thread count. The pointee must outlive
  /// the LanczosEigen call.
  const std::vector<double>* warm_start = nullptr;
};

/// Which spectrum end to extract.
enum class SpectrumEnd { kSmallest, kLargest };

/// Computes the `k` eigenpairs at the requested end of the spectrum of a
/// symmetric operator by Lanczos iteration with full reorthogonalization.
/// Eigenvalues come back ascending.
///
/// One Krylov factorization A V^T = V^T T + beta_m v_{m+1} e_m^T is grown in
/// place, one operator apply per basis vector, with the basis stored as one
/// contiguous row-major block whose capacity grows per checkpoint.
///   - Checkpoints. At Krylov dimensions 60 (or 3k+20), 120, 240, ... up to
///     max_subspace the solver tests convergence from the eigenvalues of T
///     and the last row of its eigenvectors only (QL on one tracked row,
///     O(m^2)). `restarts_used` counts the checkpoints after the first;
///     no basis is discarded between checkpoints (but see `warm_start`).
///   - Reorthogonalization. Classical Gram-Schmidt against the whole basis,
///     with a second pass only under the DGKS test (the first pass shrank
///     the vector below 1/sqrt(2) of its norm); see linalg/gram_schmidt.h.
///     A pass projects in parallel over groups of basis rows, then updates
///     in parallel over element blocks. Both phases run 2-lane vector
///     micro-kernels over blocks of 8 rows, where a lane holds one row's dot
///     product (one serial sum in index order) or one element's updates (in
///     row order), so results are bit-identical to the scalar loops and at
///     any thread count.
///   - Ritz vectors. Built once, at the end, from the prefix of the
///     factorization at the best checkpoint (the converged one, else the one
///     with the smallest worst residual), with the k tridiagonal
///     eigenvectors from inverse iteration (TridiagonalInverseIteration).
///     No m x m matrix is formed.
/// If the budget is exhausted before all pairs converge, the best estimates
/// are returned with `converged = false` and `max_residual` reporting their
/// worst Ritz residual.
Result<EigenResult> LanczosEigen(const LinearOperator& op, int k,
                                 SpectrumEnd end,
                                 const LanczosOptions& options = {});

}  // namespace roadpart

#endif  // ROADPART_LINALG_LANCZOS_H_
