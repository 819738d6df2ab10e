#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "linalg/gram_schmidt.h"

namespace roadpart {

namespace {

// Elements per Ritz-vector task. Every element receives its updates in
// basis-row order, so results depend on neither this constant nor the
// thread count.
constexpr int64_t kElementGrain = 4096;

// DGKS criterion: a second Gram-Schmidt pass runs only when the first one
// removed more than this share of the vector's norm (||w'|| < ||w|| / sqrt 2).
constexpr double kDgksRatio = 0.7071067811865476;

double SerialDot(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Basis rows per storage chunk. Growth allocates whole chunks and never
// moves a row, so no two copies of the basis coexist; chunks are left
// uninitialized, so pages are only touched as rows are written.
constexpr int kChunkRows = 8 * kGramSchmidtBlockRows;

}  // namespace

// A Lanczos factorization A V^T = V^T T + beta_m v_{m+1} e_m^T with full
// reorthogonalization, grown in place. The basis rows v_1..v_m are row-major
// in chunks of kChunkRows rows; T has diagonal `alpha` and couplings `beta`,
// where beta[j] couples rows j and j+1 and beta[m-1] is the trailing beta_m
// of the residual estimates. `residual` is beta_m v_{m+1}, kept so growth
// resumes where a checkpoint stopped it. Any prefix of the first m' rows is
// itself the factorization a build stopped at m' would have produced.
struct LanczosSolver::Factorization {
  int n = 0;
  int rows = 0;  // basis rows; alpha/beta trail by one inside a step
  std::vector<std::unique_ptr<double[]>> chunks;
  std::vector<double*> chunk_data;  // chunks[c].get(), for Gram-Schmidt
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> residual;
  std::vector<double> h;  // projection coefficients, scratch
  bool exhausted = false;  // the basis spans the whole space

  Factorization(int order, std::vector<double> start)
      : n(order), residual(std::move(start)) {}

  int size() const { return static_cast<int>(alpha.size()); }
  const double* row(int j) const {
    return chunk_data[j / kChunkRows] + static_cast<size_t>(j % kChunkRows) * n;
  }

  // residual -= V V^T residual: classical Gram-Schmidt against every row,
  // repeated once under the DGKS test. Returns the resulting norm.
  double Orthogonalize() {
    h.resize(rows);
    double norm = std::sqrt(SerialDot(residual.data(), residual.data(), n));
    for (int pass = 0; pass < 2; ++pass) {
      GramSchmidtPass(chunk_data.data(), kChunkRows, rows, n, residual.data(),
                      h.data());
      const double projected =
          std::sqrt(SerialDot(residual.data(), residual.data(), n));
      const bool enough = projected >= kDgksRatio * norm;
      norm = projected;
      if (enough) break;
    }
    return norm;
  }

  // Turns the residual into the next unit basis row. After a breakdown
  // (beta_m negligible: the basis spans an invariant subspace) the row is a
  // fresh random direction orthogonal to the basis, and beta_m becomes the
  // zero coupling of a decoupled block. Returns false, marking the
  // factorization exhausted, when no such direction exists.
  bool AppendNextRow(Rng& rng) {
    const int m = size();
    double norm;
    if (m == 0) {
      norm = std::sqrt(SerialDot(residual.data(), residual.data(), n));
      RP_CHECK(norm > 0.0);
    } else if (beta[m - 1] >= 1e-13 * (std::fabs(alpha[m - 1]) + 1.0)) {
      norm = beta[m - 1];
    } else {
      beta[m - 1] = 0.0;
      norm = 0.0;
      for (int attempt = 0; attempt < 5 && m < n && norm <= 1e-10;
           ++attempt) {
        for (double& x : residual) x = rng.NextDouble() - 0.5;
        norm = Orthogonalize();
      }
      if (norm <= 1e-10) {
        exhausted = true;
        return false;
      }
    }
    if (rows == static_cast<int>(chunks.size()) * kChunkRows) {
      chunks.emplace_back(new double[static_cast<size_t>(kChunkRows) * n]);
      chunk_data.push_back(chunks.back().get());
    }
    double* next =
        chunk_data.back() + static_cast<size_t>(rows % kChunkRows) * n;
    const double inv = 1.0 / norm;
    for (int i = 0; i < n; ++i) next[i] = residual[i] * inv;
    ++rows;
    return true;
  }

  // One Lanczos step on the newest basis row v_j: alpha_j, then the
  // reorthogonalized residual and its norm beta_j.
  void Step(const LinearOperator& op) {
    const int j = rows - 1;
    const double* v = row(j);
    op.Apply(v, residual.data());
    if (j > 0) {
      const double* prev = row(j - 1);
      const double b = beta[j - 1];
      for (int i = 0; i < n; ++i) residual[i] -= b * prev[i];
    }
    const double a = SerialDot(residual.data(), v, n);
    // A NaN here (operator bug, non-finite matrix entry) would quietly turn
    // the whole Krylov basis — and the final embedding — into garbage.
    RP_DCHECK(std::isfinite(a));
    for (int i = 0; i < n; ++i) residual[i] -= a * v[i];
    alpha.push_back(a);
    const double b = Orthogonalize();
    RP_DCHECK(std::isfinite(b));
    beta.push_back(b);
  }

  // Grows the factorization to `m_target` rows, or fewer when exhausted.
  void GrowTo(const LinearOperator& op, int m_target, Rng& rng) {
    while (size() < m_target && !exhausted && AppendNextRow(rng)) Step(op);
  }
};

namespace {

std::vector<double> RandomStart(int n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextDouble() - 0.5;
  return v;
}

// True when `warm` can legally seed a Krylov build for an order-n operator:
// right dimension, fully finite, non-negligible norm. Anything else must be
// ignored (cold random start), never trusted.
bool UsableWarmStart(const std::vector<double>* warm, int n) {
  if (warm == nullptr || static_cast<int>(warm->size()) != n) return false;
  for (double x : *warm) {
    if (!std::isfinite(x)) return false;
  }
  return Norm2(*warm) > 1e-300;
}

// The convergence test at a checkpoint: the Ritz values of T_m at the
// requested end and the worst residual estimate |beta_m s_mi|, from the
// eigenvalues and the last row of T_m's eigenvectors only — O(m^2).
struct Checkpoint {
  std::vector<double> ritz_values;  // k, ascending
  double worst_residual = 0.0;
  bool converged = false;
};

Result<Checkpoint> CheckConvergence(const LanczosSolver::Factorization& kf,
                                    int k, SpectrumEnd end, double tolerance,
                                    bool forced_nonconvergence) {
  const int m = kf.size();
  if (m < k) return Status::Internal("Krylov subspace smaller than k");
  std::vector<double> sub(kf.beta.begin(), kf.beta.begin() + (m - 1));
  RP_ASSIGN_OR_RETURN(EigenResult tri,
                      TridiagonalEigenRows(kf.alpha, sub, {m - 1}));

  double spectral_scale = std::max(std::fabs(tri.eigenvalues.front()),
                                   std::fabs(tri.eigenvalues.back()));
  if (spectral_scale == 0.0) spectral_scale = 1.0;

  Checkpoint cp;
  const double trailing_beta = kf.beta[m - 1];  // 0 once exhausted
  for (int c = 0; c < k; ++c) {
    const int i = (end == SpectrumEnd::kSmallest) ? c : m - k + c;
    cp.ritz_values.push_back(tri.eigenvalues[i]);
    cp.worst_residual =
        std::max(cp.worst_residual,
                 std::fabs(trailing_beta * tri.eigenvectors(0, i)));
  }
  cp.converged = !forced_nonconvergence &&
                 (kf.exhausted || m == kf.n ||
                  cp.worst_residual <= tolerance * spectral_scale);
  return cp;
}

// Ritz vectors x = V_m^T y of the first m rows for the given Ritz values,
// with y from inverse iteration on T_m, as the unit columns of an n x k
// matrix.
Result<DenseMatrix> RitzVectors(const LanczosSolver::Factorization& kf, int m,
                                const std::vector<double>& ritz_values) {
  const int n = kf.n;
  const int k = static_cast<int>(ritz_values.size());
  std::vector<double> alpha(kf.alpha.begin(), kf.alpha.begin() + m);
  std::vector<double> sub(kf.beta.begin(), kf.beta.begin() + (m - 1));
  RP_ASSIGN_OR_RETURN(DenseMatrix y,
                      TridiagonalInverseIteration(alpha, sub, ritz_values));
  DenseMatrix x(n, k);
  ParallelForBlocked(n, kElementGrain, [&](int64_t begin, int64_t end) {
    for (int j = 0; j < m; ++j) {
      const double* v = kf.row(j);
      const double* yj = y.Row(j);
      for (int64_t r = begin; r < end; ++r) {
        double* xr = x.Row(static_cast<int>(r));
        for (int c = 0; c < k; ++c) xr[c] += v[r] * yj[c];
      }
    }
  });
  // Normalize (the basis is orthonormal, so the norms are already near 1).
  for (int c = 0; c < k; ++c) {
    double sq = 0.0;
    for (int r = 0; r < n; ++r) sq += x(r, c) * x(r, c);
    const double norm = std::sqrt(sq);
    RP_DCHECK(std::isfinite(norm));
    if (norm > 0.0) {
      for (int r = 0; r < n; ++r) x(r, c) /= norm;
    }
  }
  return x;
}

}  // namespace

LanczosSolver::LanczosSolver(const LinearOperator& op, int k, SpectrumEnd end,
                             const LanczosOptions& options)
    : op_(op),
      k_(k),
      end_(end),
      tolerance_(options.tolerance),
      rng_(options.seed),
      warm_(UsableWarmStart(options.warm_start, op.Dim())),
      next_target_(std::max(3 * k + 20, 60)) {
  const int n = op.Dim();
  kf_ = std::make_unique<Factorization>(
      n, warm_ ? *options.warm_start : RandomStart(n, rng_));
  best_.converged = false;
  best_.max_residual = HUGE_VAL;
}

LanczosSolver::~LanczosSolver() = default;

Status LanczosSolver::Run(int budget, int max_restarts) {
  const int n = op_.Dim();
  if (k_ <= 0) return Status::InvalidArgument("k must be positive");
  if (k_ > n) {
    return Status::InvalidArgument(
        StrPrintf("k=%d exceeds operator order %d", k_, n));
  }
  const int cap = std::min(budget, n);

  // Armed by tests to simulate an operator whose spectrum defeats the
  // iteration: the best Ritz estimates are still assembled, but no
  // checkpoint of this call may declare convergence, exercising the caller's
  // fallback ladder. One query per Run call keeps arming counts predictable.
  const bool forced_nonconvergence =
      RP_FAULT_FIRES(FaultSite::kLanczosNonConvergence);

  for (int checkpoint = 0; checkpoint <= max_restarts; ++checkpoint) {
    if (warm_ && checkpoints_ > 0) {
      // A warm-started factorization that missed its first checkpoint is
      // discarded once, and the solve goes on with a cold one from the
      // seeded rng, so a misleading warm vector costs one checkpoint.
      RP_ASSIGN_OR_RETURN(best_.eigenvectors,
                          RitzVectors(*kf_, best_m_, best_.eigenvalues));
      best_m_ = 0;
      kf_ = std::make_unique<Factorization>(n, RandomStart(n, rng_));
      warm_ = false;
    }
    const int m = std::min(next_target_, cap);
    kf_->GrowTo(op_, m, rng_);
    RP_ASSIGN_OR_RETURN(Checkpoint cp,
                        CheckConvergence(*kf_, k_, end_, tolerance_,
                                         forced_nonconvergence));
    ++checkpoints_;
    if (cp.worst_residual < best_.max_residual || cp.converged) {
      best_.eigenvalues = std::move(cp.ritz_values);
      best_.max_residual = cp.worst_residual;
      best_.converged = cp.converged;
      best_m_ = kf_->size();
    }
    // A checkpoint clamped to the budget keeps its target for the next call.
    if (m == next_target_) next_target_ *= 2;
    if (best_.converged || m == cap) break;
  }
  return Status::OK();
}

Result<EigenResult> LanczosSolver::Eigenpairs() const {
  EigenResult result = best_;
  if (best_m_ > 0) {
    RP_ASSIGN_OR_RETURN(result.eigenvectors,
                        RitzVectors(*kf_, best_m_, best_.eigenvalues));
  }
  result.restarts_used = restarts_used();
  return result;
}

Result<EigenResult> LanczosEigen(const LinearOperator& op, int k,
                                 SpectrumEnd end,
                                 const LanczosOptions& options) {
  LanczosSolver solver(op, k, end, options);
  RP_RETURN_IF_ERROR(solver.Run(options.max_subspace, options.max_restarts));
  if (!solver.converged()) {
    RP_LOG(Warning) << "Lanczos did not fully converge; max residual "
                    << solver.max_residual();
  }
  return solver.Eigenpairs();
}

}  // namespace roadpart
