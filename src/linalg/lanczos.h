#ifndef ROADPART_LINALG_LANCZOS_H_
#define ROADPART_LINALG_LANCZOS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
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
  /// previous Krylov dimension, up to max_subspace) before giving up. The
  /// checkpoints of the plain factorization and of the Chebyshev-filtered
  /// one that replaces it after a miss at twice the first dimension count
  /// alike: at the defaults 60 and 120 plain rows, then 60 and 120 filtered
  /// ones.
  int max_restarts = 3;
  /// Optional warm start: a non-owning pointer to a start vector carried over
  /// from a previous, similar solve (e.g. the first embedding column of the
  /// last interval in the incremental repartitioner). It seeds the
  /// factorization only until its first checkpoint: if that misses, the warm
  /// factorization is discarded once and the solve goes on with a cold one
  /// from the seeded rng, so a bad warm vector costs at most one checkpoint.
  /// Silently ignored unless it has exactly the operator's dimension, is
  /// entirely finite, and has a positive norm. An accelerator, not a semantic
  /// knob: the solve converges to the same eigenpairs within tolerance, it
  /// just takes a different (usually much shorter) iteration path.
  /// Deterministic: the same warm vector always yields the same bits at every
  /// thread count. It is copied when the solve starts (LanczosEigen, or the
  /// LanczosSolver constructor).
  const std::vector<double>* warm_start = nullptr;
};

/// Which spectrum end to extract.
enum class SpectrumEnd { kSmallest, kLargest };

/// A Lanczos solve for the `k` eigenpairs at one end of the spectrum of a
/// symmetric operator, with full reorthogonalization. Eigenvalues come back
/// ascending.
///
/// One Krylov factorization A V^T = V^T T + beta_m v_{m+1} e_m^T is grown in
/// place, one operator apply per basis vector. The basis rows live in
/// fixed-size chunks, so growth never copies rows: a basis of m rows holds
/// m rows plus at most one partly filled chunk.
///   - Checkpoints. At Krylov dimensions 60 (or 3k+20), 120, 240, ... the
///     solver tests convergence from the eigenvalues of T and the last row of
///     its eigenvectors only (QL on one tracked row, O(m^2)). A checkpoint
///     past a call's budget is clamped to it; the next call resumes the
///     doubling schedule (a filtered factorization under budget 200, then
///     400: 60, 120, 200, then 240, 400).
///     `restarts_used` counts the checkpoints after the first, over every
///     Run call. A basis is discarded only by the switch to the filter
///     below and by the `warm_start` guard.
///   - Chebyshev filter. If the checkpoint at twice the first dimension
///     (120 rows by default) misses, the plain factorization is dropped
///     (its best Ritz pairs kept) and a fresh one of the degree-32
///     Chebyshev polynomial p(A) grows from a random start on the same
///     doubling schedule and budget, 32 applies per row. p damps the
///     interval from the (k+1)-th Ritz value from the wanted end (the cut;
///     by interlacing every wanted eigenvalue lies beyond it) to the
///     opposite extreme Ritz value pushed out by beta_m, so the wanted
///     pairs become p(A)'s largest with a far wider relative gap, and far
///     fewer rows need reorthogonalizing. Only Apply is used, so a
///     forwarding decorator around `op` changes no bit.
///   - Filtered checkpoints. Rayleigh-Ritz of A itself on the Ritz vectors
///     of p(A)'s k largest Ritz values: k applies and a k x k dense solve.
///     A checkpoint converges only when every pair's true residual
///     ||A x - theta x|| is within tolerance of the plain checkpoint's
///     spectral scale and every theta lies on the wanted side of the cut.
///     Eigenvalues and `max_residual` are always A's, never p's.
///   - Reorthogonalization. Classical Gram-Schmidt against the whole basis,
///     with a second pass only under the DGKS test (the first pass shrank
///     the vector below 1/sqrt(2) of its norm); see linalg/gram_schmidt.h.
///     A pass projects in parallel over groups of basis rows, then updates
///     in parallel over element blocks. Both phases run 2-lane vector
///     micro-kernels over blocks of 8 rows, where a lane holds one row's dot
///     product (one serial sum in index order) or one element's updates (in
///     row order), so results are bit-identical to the scalar loops and at
///     any thread count.
///   - Ritz vectors. The best checkpoint is the converged one, else the one
///     with the smallest worst residual, plain or filtered. A plain one's
///     vectors are built once, by Eigenpairs (or before its basis is
///     dropped), from the prefix of the factorization at that checkpoint,
///     with the k tridiagonal eigenvectors from inverse iteration
///     (TridiagonalInverseIteration); a filtered one's come from its
///     Rayleigh-Ritz step. No m x m matrix is formed.
/// Any prefix of the rows is the factorization a shorter build would have
/// produced, and the switch to the filter happens at the same checkpoint
/// whichever call reaches it: when Run(400) misses and a following Run(800)
/// converges, the result has the bits of one Run(800) from the same seed,
/// at the same operator-apply count. A later call resumes the filtered
/// factorization once the switch has happened.
class LanczosSolver {
 public:
  /// Starts the factorization from `options.warm_start` when usable, else
  /// from a random vector of `options.seed`. `op` must outlive the solver.
  /// `options.max_subspace` and `options.max_restarts` are not read here:
  /// each Run call names its own budget.
  LanczosSolver(const LinearOperator& op, int k, SpectrumEnd end,
                const LanczosOptions& options);
  ~LanczosSolver();
  LanczosSolver(const LanczosSolver&) = delete;
  LanczosSolver& operator=(const LanczosSolver&) = delete;

  /// Grows the factorization through at most `max_restarts` + 1 further
  /// checkpoints, stopping at the first converged one or at the one that
  /// reaches `budget` rows (clamped to the operator order). A later call
  /// with a larger budget resumes where this one stopped. Queries the
  /// kLanczosNonConvergence fault once: when it fires, no checkpoint of
  /// this call may declare convergence. InvalidArgument unless
  /// 1 <= k <= order.
  Status Run(int budget, int max_restarts);

  /// Whether the best checkpoint so far converged, and its worst Ritz
  /// residual (HUGE_VAL before the first checkpoint).
  bool converged() const { return best_.converged; }
  double max_residual() const { return best_.max_residual; }
  /// Checkpoints after the first, over every Run call.
  int restarts_used() const { return std::max(checkpoints_ - 1, 0); }

  /// The best checkpoint's eigenpairs, Ritz vectors included. When it did
  /// not converge they are the best estimates, with `converged = false` and
  /// `max_residual` reporting their worst Ritz residual.
  Result<EigenResult> Eigenpairs() const;

  /// The Krylov factorization and the Chebyshev filter; defined in
  /// lanczos.cc.
  struct Factorization;
  struct Filter;

 private:
  const LinearOperator& op_;
  const int k_;
  const SpectrumEnd end_;
  const double tolerance_;
  Rng rng_;
  std::unique_ptr<Factorization> kf_;
  std::unique_ptr<Filter> filter_;  // set once kf_ factorizes the filter
  bool warm_ = false;  // kf_ still grows from the warm start
  const int first_target_;  // the first checkpoint's dimension
  int next_target_ = 0;  // the next checkpoint's unclamped dimension
  int checkpoints_ = 0;
  // The best checkpoint so far. Its Ritz vectors are built by Eigenpairs
  // from the factorization prefix of `best_m_` rows; best_m_ == 0 means they
  // are already in best_.eigenvectors (or no checkpoint ran yet).
  EigenResult best_;
  int best_m_ = 0;
};

/// One LanczosSolver::Run to `options.max_subspace` rows with
/// `options.max_restarts`, then its Eigenpairs. If the budget is exhausted
/// before all pairs converge, the best estimates are returned with
/// `converged = false`.
Result<EigenResult> LanczosEigen(const LinearOperator& op, int k,
                                 SpectrumEnd end,
                                 const LanczosOptions& options = {});

}  // namespace roadpart

#endif  // ROADPART_LINALG_LANCZOS_H_
