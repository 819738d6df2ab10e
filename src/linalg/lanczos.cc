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

// Degree of the Chebyshev filter: one filtered Lanczos step costs this many
// operator applies. On the 800-segment AG benchmark city (k = 6, a cluster
// of four eigenvalues within 1e-10 of -1 and a gap of 1.3e-4 across a
// spectrum of width 2) degree 32 converges at the first filtered checkpoint
// (2,046 applies in all); 16 and 24 need a second one (2,052 and 3,012
// applies) and 40 spends 2,526 at the first. All four give the same labels;
// 32 is the fastest.
constexpr int kFilterDegree = 32;

}  // namespace

// The Chebyshev filter p(A) = T_d((A - cI)/e) / T_d((a0 - c)/e) of degree
// kFilterDegree, built from a plain factorization's tridiagonal T_m. The
// damped interval [c - e, c + e] runs from the cut, the (k+1)-th Ritz value
// from the wanted end, to the opposite extreme Ritz value pushed out by
// beta_m; a0 is the wanted extreme Ritz value. By interlacing every wanted
// eigenvalue lies beyond the cut, where p grows monotonically with the
// distance from it (p(a0) = 1), while |p| <= 1 / |T_d((a0 - c)/e)| on the
// damped interval: the k wanted eigenpairs of A are the k largest of p(A),
// with a much wider relative gap. Applied by the scaled three-term
// recurrence of Zhou & Saad (2007), whose iterates never outgrow p itself.
struct LanczosSolver::Filter final : public LinearOperator {
  const LinearOperator& op;
  double center = 0.0;
  double half_width = 0.0;
  double sigma1 = 0.0;  // e / (a0 - c)
  double cut = 0.0;     // wanted eigenvalues lie at or beyond it
  double scale = 0.0;   // spectral scale of T_m, for the acceptance test
  mutable std::vector<double> older;    // the iterate before the last
  mutable std::vector<double> product;  // A times the last iterate

  explicit Filter(const LinearOperator& base) : op(base) {}

  int Dim() const override { return op.Dim(); }
  void Apply(const double* x, double* y) const override {
    const int n = op.Dim();
    older.resize(n);
    product.resize(n);
    op.Apply(x, product.data());
    const double first = sigma1 / half_width;
    for (int i = 0; i < n; ++i) y[i] = (product[i] - center * x[i]) * first;
    const double* prev = x;
    double sigma = sigma1;
    for (int degree = 2; degree <= kFilterDegree; ++degree) {
      const double next_sigma = 1.0 / (2.0 / sigma1 - sigma);
      const double f = 2.0 * next_sigma / half_width;
      const double g = sigma * next_sigma;
      op.Apply(y, product.data());
      for (int i = 0; i < n; ++i) {
        const double next = (product[i] - center * y[i]) * f - g * prev[i];
        older[i] = y[i];
        y[i] = next;
      }
      prev = older.data();
      sigma = next_sigma;
    }
  }
};

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
  DenseMatrix vectors;  // filtered checkpoints only: the Ritz vectors
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

// The filter for a plain factorization that missed its checkpoint, or null
// when T_m's Ritz values span no interval to damp.
Result<std::unique_ptr<LanczosSolver::Filter>> MakeFilter(
    const LinearOperator& op, const LanczosSolver::Factorization& kf, int k,
    SpectrumEnd end) {
  const int m = kf.size();
  std::vector<double> sub(kf.beta.begin(), kf.beta.begin() + (m - 1));
  RP_ASSIGN_OR_RETURN(EigenResult tri, TridiagonalEigenRows(kf.alpha, sub, {}));
  const std::vector<double>& theta = tri.eigenvalues;
  const double pad = kf.beta[m - 1];
  const bool smallest = end == SpectrumEnd::kSmallest;
  const double wanted = smallest ? theta.front() : theta.back();
  const double cut = smallest ? theta[k] : theta[m - 1 - k];
  const double far = smallest ? theta.back() + pad : theta.front() - pad;
  auto filter = std::make_unique<LanczosSolver::Filter>(op);
  filter->center = 0.5 * (cut + far);
  filter->half_width = 0.5 * std::fabs(far - cut);
  if (!(filter->half_width > 0.0)) {
    return std::unique_ptr<LanczosSolver::Filter>();
  }
  filter->sigma1 = filter->half_width / (wanted - filter->center);
  filter->cut = cut;
  filter->scale = std::max(std::fabs(theta.front()), std::fabs(theta.back()));
  if (filter->scale == 0.0) filter->scale = 1.0;
  return filter;
}

// The acceptance test at a filtered checkpoint: Rayleigh-Ritz of `op` itself
// on the Ritz vectors of p(A)'s k largest Ritz values (k applies and a k x k
// dense solve). The pairs are A's, each with its true residual
// ||A z - theta z||; the checkpoint converges only when every residual is
// within tolerance of the spectral scale and every theta lies on the wanted
// side of the filter's cut.
Result<Checkpoint> RayleighRitz(const LinearOperator& op,
                                const LanczosSolver::Factorization& kf,
                                const LanczosSolver::Filter& filter, int k,
                                SpectrumEnd end, double tolerance,
                                bool forced_nonconvergence) {
  const int n = kf.n;
  const int m = kf.size();
  if (m < k) return Status::Internal("Krylov subspace smaller than k");
  std::vector<double> sub(kf.beta.begin(), kf.beta.begin() + (m - 1));
  RP_ASSIGN_OR_RETURN(EigenResult tri, TridiagonalEigenRows(kf.alpha, sub, {}));
  const std::vector<double> top(tri.eigenvalues.end() - k,
                                tri.eigenvalues.end());
  RP_ASSIGN_OR_RETURN(DenseMatrix x, RitzVectors(kf, m, top));

  DenseMatrix ax(n, k);
  std::vector<double> in(n);
  std::vector<double> out(n);
  for (int c = 0; c < k; ++c) {
    for (int r = 0; r < n; ++r) in[r] = x(r, c);
    op.Apply(in.data(), out.data());
    for (int r = 0; r < n; ++r) ax(r, c) = out[r];
  }
  DenseMatrix h(k, k);
  for (int r = 0; r < n; ++r) {
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) h(a, b) += x(r, a) * ax(r, b);
    }
  }
  RP_ASSIGN_OR_RETURN(EigenResult small, SymmetricEigenDecompose(h));
  const DenseMatrix& q = small.eigenvectors;

  // z = x q and A z = (A x) q, then unit z and the residual of each pair.
  Checkpoint cp;
  cp.ritz_values = small.eigenvalues;
  cp.vectors = DenseMatrix(n, k);
  DenseMatrix az(n, k);
  std::vector<double> sq(k, 0.0);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < k; ++c) {
      double zc = 0.0;
      double azc = 0.0;
      for (int a = 0; a < k; ++a) {
        zc += x(r, a) * q(a, c);
        azc += ax(r, a) * q(a, c);
      }
      cp.vectors(r, c) = zc;
      az(r, c) = azc;
      sq[c] += zc * zc;
    }
  }
  std::vector<double> inv(k);
  for (int c = 0; c < k; ++c) inv[c] = 1.0 / std::sqrt(sq[c]);
  std::vector<double> residual_sq(k, 0.0);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < k; ++c) {
      const double z = cp.vectors(r, c) * inv[c];
      const double rc = az(r, c) * inv[c] - cp.ritz_values[c] * z;
      cp.vectors(r, c) = z;
      residual_sq[c] += rc * rc;
    }
  }
  bool wanted_side = true;
  for (int c = 0; c < k; ++c) {
    cp.worst_residual =
        std::max(cp.worst_residual, std::sqrt(residual_sq[c]));
    const double theta = cp.ritz_values[c];
    wanted_side = wanted_side && (end == SpectrumEnd::kSmallest
                                      ? theta <= filter.cut
                                      : theta >= filter.cut);
  }
  cp.converged = !forced_nonconvergence && wanted_side &&
                 cp.worst_residual <= tolerance * filter.scale;
  return cp;
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
      first_target_(std::max(3 * k + 20, 60)),
      next_target_(first_target_) {
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

  // Builds the best checkpoint's Ritz vectors before its factorization is
  // discarded.
  auto keep_best_vectors = [&]() -> Status {
    if (best_m_ > 0) {
      RP_ASSIGN_OR_RETURN(best_.eigenvectors,
                          RitzVectors(*kf_, best_m_, best_.eigenvalues));
      best_m_ = 0;
    }
    return Status::OK();
  };

  for (int checkpoint = 0; checkpoint <= max_restarts; ++checkpoint) {
    if (warm_ && checkpoints_ > 0) {
      // A warm-started factorization that missed its first checkpoint is
      // discarded once, and the solve goes on with a cold one from the
      // seeded rng, so a misleading warm vector costs one checkpoint.
      RP_RETURN_IF_ERROR(keep_best_vectors());
      kf_ = std::make_unique<Factorization>(n, RandomStart(n, rng_));
      warm_ = false;
    } else if (filter_ == nullptr && kf_->size() == 2 * first_target_) {
      // The plain factorization missed its checkpoint at twice the first
      // dimension: grow a fresh one of the Chebyshev filter built from it,
      // on the doubling schedule from the first dimension again.
      RP_ASSIGN_OR_RETURN(filter_, MakeFilter(op_, *kf_, k_, end_));
      if (filter_ != nullptr) {
        RP_RETURN_IF_ERROR(keep_best_vectors());
        kf_ = std::make_unique<Factorization>(n, RandomStart(n, rng_));
        next_target_ = first_target_;
      }
    }
    const int m = std::min(next_target_, cap);
    Checkpoint cp;
    if (filter_ == nullptr) {
      kf_->GrowTo(op_, m, rng_);
      RP_ASSIGN_OR_RETURN(cp, CheckConvergence(*kf_, k_, end_, tolerance_,
                                               forced_nonconvergence));
    } else {
      kf_->GrowTo(*filter_, m, rng_);
      RP_ASSIGN_OR_RETURN(cp, RayleighRitz(op_, *kf_, *filter_, k_, end_,
                                           tolerance_, forced_nonconvergence));
    }
    ++checkpoints_;
    if (cp.worst_residual < best_.max_residual || cp.converged) {
      best_.eigenvalues = std::move(cp.ritz_values);
      best_.max_residual = cp.worst_residual;
      best_.converged = cp.converged;
      if (filter_ == nullptr) {
        best_m_ = kf_->size();
      } else {  // a filtered checkpoint's vectors are already built
        best_m_ = 0;
        best_.eigenvectors = std::move(cp.vectors);
      }
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
