#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

double Hypot2(double a, double b) { return std::hypot(a, b); }

// Householder reduction of symmetric `z` (n x n) to tridiagonal form with
// accumulation of the orthogonal transform in `z`. On return `d` holds the
// diagonal and `e[1..n-1]` the sub-diagonal (e[0] = 0). Classic EISPACK
// tred2 translated to 0-based indexing.
void Tred2(DenseMatrix& z, std::vector<double>& d, std::vector<double>& e) {
  const int n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);

  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (int k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = z(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Accumulate transformations.
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += z(i, k) * z(k, j);
        for (int k = 0; k <= l; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL iteration (EISPACK tql2 / NR tqli) on the symmetric
// tridiagonal (d, e), where e[i] couples i-1 and i (e[0] unused, the tred2
// layout). The rotations are applied to `tracked` rows of the eigenvector
// matrix z, stored transposed: zt holds n rows of `tracked` doubles,
// zt[i * tracked + t] being component t of eigenvector i. A rotation of
// eigenvectors i and i+1 then touches two contiguous rows instead of two
// strided columns, and the arithmetic per element is exactly tql2's, so
// tracking every row reproduces tql2 bit for bit while tracking one row
// costs O(n) per sweep.
Status TridiagonalQL(std::vector<double>& d, std::vector<double>& e,
                     std::vector<double>& zt, int tracked) {
  const int n = static_cast<int>(d.size());
  if (n == 0) return Status::OK();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < n - 1; ++m) {
        double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (iter++ == 128) {
          return Status::NotConverged(
              StrPrintf("QL iteration failed at eigenvalue %d", l));
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (int i = m - 1; i >= l; --i) {
          double f = s * e[i];
          double b = c * e[i];
          r = Hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = zt.data() + static_cast<size_t>(i) * tracked;
          double* zi1 = zi + tracked;
          for (int t = 0; t < tracked; ++t) {
            f = zi1[t];
            zi1[t] = s * zi[t] + c * f;
            zi[t] = c * zi[t] - s * f;
          }
        }
        if (r == 0.0 && m - 1 >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

// Sorts the eigenvalues ascending (stable) and gathers the transposed
// tracked rows into the r x n result: out(t, j) = component t of the j-th
// smallest eigenpair.
void SortAscending(std::vector<double>& d, const std::vector<double>& zt,
                   int r, DenseMatrix& out) {
  const int n = static_cast<int>(d.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return d[a] < d[b]; });

  std::vector<double> d_sorted(n);
  out = DenseMatrix(r, n);
  for (int j = 0; j < n; ++j) {
    d_sorted[j] = d[order[j]];
    const double* src = zt.data() + static_cast<size_t>(order[j]) * r;
    for (int t = 0; t < r; ++t) out(t, j) = src[t];
  }
  d = std::move(d_sorted);
}

// Validates the (d, e) shape shared by the tridiagonal entry points.
Status CheckTridiagonal(const std::vector<double>& d,
                        const std::vector<double>& e) {
  if (!d.empty() && e.size() != d.size() - 1) {
    return Status::InvalidArgument("sub-diagonal must have n-1 entries");
  }
  return Status::OK();
}

// Copies (d, e) into the tred2 layout the QL routine expects (e[0] unused,
// e[i] couples i-1 and i), scaled to unit magnitude: extreme dynamic ranges
// (e.g. near-underflow edge weights) otherwise stall the QL shifts. Returns
// the scale (0 for the zero matrix, which is left as is).
double ScaledTridiagonal(const std::vector<double>& d_in,
                         const std::vector<double>& e_in,
                         std::vector<double>& d, std::vector<double>& e) {
  const int n = static_cast<int>(d_in.size());
  d = d_in;
  e.assign(n, 0.0);
  for (int i = 1; i < n; ++i) e[i] = e_in[i - 1];
  double scale = 0.0;
  for (double v : d) scale = std::max(scale, std::fabs(v));
  for (double v : e) scale = std::max(scale, std::fabs(v));
  if (scale > 0.0) {
    for (double& v : d) v /= scale;
    for (double& v : e) v /= scale;
  }
  return scale;
}

// T - shift I = P L U for a symmetric tridiagonal T, with partial pivoting
// (LAPACK dlagtf), and the perturbed solve of dlagts (job -1) that inverse
// iteration needs: a tiny or zero pivot is nudged instead of dividing by it.
// `a` is U's diagonal, `b` and `d2` its first and second superdiagonals, `c`
// L's multipliers; swapped[k] records a row interchange at step k.
struct ShiftedTridiagonalLU {
  std::vector<double> a, b, c, d2;
  std::vector<char> swapped;
  double tol = 0.0;

  void Factor(const std::vector<double>& diag, const std::vector<double>& off,
              double shift) {
    const int n = static_cast<int>(diag.size());
    a = diag;
    for (double& v : a) v -= shift;
    b = off;
    c = off;
    d2.assign(n > 2 ? n - 2 : 0, 0.0);
    swapped.assign(n > 1 ? n - 1 : 0, 0);
    double scale1 = std::fabs(a[0]) + (n > 1 ? std::fabs(b[0]) : 0.0);
    for (int k = 0; k + 1 < n; ++k) {
      double scale2 = std::fabs(c[k]) + std::fabs(a[k + 1]);
      if (k + 2 < n) scale2 += std::fabs(b[k + 1]);
      const double piv1 = a[k] == 0.0 ? 0.0 : std::fabs(a[k]) / scale1;
      if (c[k] == 0.0) {
        scale1 = scale2;
        continue;
      }
      const double piv2 = std::fabs(c[k]) / scale2;
      if (piv2 <= piv1) {
        scale1 = scale2;
        c[k] /= a[k];
        a[k + 1] -= c[k] * b[k];
      } else {
        swapped[k] = 1;
        const double mult = a[k] / c[k];
        a[k] = c[k];
        const double temp = a[k + 1];
        a[k + 1] = b[k] - mult * temp;
        if (k + 2 < n) {
          d2[k] = b[k + 1];
          b[k + 1] = -mult * d2[k];
        }
        b[k] = temp;
        c[k] = mult;
      }
    }
    tol = 0.0;
    for (double v : a) tol = std::max(tol, std::fabs(v));
    for (double v : b) tol = std::max(tol, std::fabs(v));
    for (double v : d2) tol = std::max(tol, std::fabs(v));
    const double eps = std::numeric_limits<double>::epsilon();
    tol = tol == 0.0 ? eps : tol * eps;
  }

  void Solve(std::vector<double>& y) const {
    const int n = static_cast<int>(a.size());
    for (int k = 1; k < n; ++k) {
      if (!swapped[k - 1]) {
        y[k] -= c[k - 1] * y[k - 1];
      } else {
        const double temp = y[k - 1];
        y[k - 1] = y[k];
        y[k] = temp - c[k - 1] * y[k];
      }
    }
    const double sfmin = std::numeric_limits<double>::min();
    const double bignum = 1.0 / sfmin;
    for (int k = n - 1; k >= 0; --k) {
      double temp = y[k];
      if (k + 1 < n) temp -= b[k] * y[k + 1];
      if (k + 2 < n) temp -= d2[k] * y[k + 2];
      double ak = a[k];
      double pert = std::copysign(tol, ak);
      for (;;) {
        const double absak = std::fabs(ak);
        if (absak < 1.0) {
          if (absak < sfmin) {
            if (absak == 0.0 || std::fabs(temp) * sfmin > absak) {
              ak += pert;
              pert *= 2.0;
              continue;
            }
            temp *= bignum;
            ak *= bignum;
          } else if (std::fabs(temp) > absak * bignum) {
            ak += pert;
            pert *= 2.0;
            continue;
          }
        }
        break;
      }
      y[k] = temp / ak;
    }
  }
};

}  // namespace

Result<EigenResult> SymmetricEigenDecompose(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("matrix must be square");
  }
  const int n = a.rows();
  if (n == 0) {
    return EigenResult{{}, DenseMatrix(0, 0), true, 0.0};
  }

  // Work on the symmetric part; reject badly asymmetric or non-finite
  // input.
  double scale = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!std::isfinite(a(i, j))) {
        return Status::InvalidArgument("matrix has non-finite entries");
      }
      scale = std::max(scale, std::fabs(a(i, j)));
    }
  }
  if (scale > 0.0 && a.SymmetryError() > 1e-8 * scale) {
    return Status::InvalidArgument("matrix is not symmetric");
  }

  // Scale to unit magnitude so near-underflow entries (e.g. products of
  // sharp Gaussian weights) cannot stall the QL shifts.
  const double inv_scale = scale > 0.0 ? 1.0 / scale : 1.0;
  DenseMatrix z(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      z(i, j) = 0.5 * (a(i, j) + a(j, i)) * inv_scale;
    }
  }

  std::vector<double> d;
  std::vector<double> e;
  Tred2(z, d, e);
  // QL tracks every row of the accumulated Householder transform, stored
  // transposed (see TridiagonalQL); the sorted rows are the eigenvectors.
  std::vector<double> zt(static_cast<size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < n; ++t) zt[static_cast<size_t>(i) * n + t] = z(t, i);
  }
  z = DenseMatrix();  // at most two n x n arrays live at once, as before
  RP_RETURN_IF_ERROR(TridiagonalQL(d, e, zt, n));
  EigenResult result;
  SortAscending(d, zt, n, result.eigenvectors);
  if (scale > 0.0) {
    for (double& v : d) v *= scale;
  }
  result.eigenvalues = std::move(d);
  result.converged = true;

  // Residual of the extreme pairs as a cheap health indicator.
  std::vector<double> x(n);
  std::vector<double> y(n);
  double max_res = 0.0;
  for (int which : {0, n - 1}) {
    for (int i = 0; i < n; ++i) x[i] = result.eigenvectors(i, which);
    a.Multiply(x.data(), y.data());
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = y[i] - result.eigenvalues[which] * x[i];
      res += r * r;
    }
    max_res = std::max(max_res, std::sqrt(res));
  }
  result.max_residual = max_res;
  return result;
}

Result<EigenResult> TridiagonalEigenDecompose(const std::vector<double>& d,
                                              const std::vector<double>& e) {
  std::vector<int> rows(d.size());
  std::iota(rows.begin(), rows.end(), 0);
  return TridiagonalEigenRows(d, e, rows);
}

Result<EigenResult> TridiagonalEigenRows(const std::vector<double>& d_in,
                                         const std::vector<double>& e_in,
                                         const std::vector<int>& rows) {
  const int n = static_cast<int>(d_in.size());
  RP_RETURN_IF_ERROR(CheckTridiagonal(d_in, e_in));
  for (int row : rows) {
    if (row < 0 || row >= n) {
      return Status::InvalidArgument(
          StrPrintf("tracked row %d outside [0,%d)", row, n));
    }
  }
  std::vector<double> d;
  std::vector<double> e;
  const double scale = ScaledTridiagonal(d_in, e_in, d, e);
  // The tracked rows of the identity: zt[i * r + t] = (i == rows[t]).
  const int r = static_cast<int>(rows.size());
  std::vector<double> zt(static_cast<size_t>(n) * r, 0.0);
  for (int t = 0; t < r; ++t) zt[static_cast<size_t>(rows[t]) * r + t] = 1.0;
  RP_RETURN_IF_ERROR(TridiagonalQL(d, e, zt, r));
  EigenResult result;
  SortAscending(d, zt, r, result.eigenvectors);
  if (scale > 0.0) {
    for (double& v : d) v *= scale;
  }
  result.eigenvalues = std::move(d);
  return result;
}

Result<DenseMatrix> TridiagonalInverseIteration(
    const std::vector<double>& d_in, const std::vector<double>& e_in,
    const std::vector<double>& eigenvalues) {
  const int n = static_cast<int>(d_in.size());
  const int k = static_cast<int>(eigenvalues.size());
  RP_RETURN_IF_ERROR(CheckTridiagonal(d_in, e_in));
  for (int j = 1; j < k; ++j) {
    if (!(eigenvalues[j - 1] <= eigenvalues[j])) {
      return Status::InvalidArgument("eigenvalues must be ascending");
    }
  }
  DenseMatrix z(n, k);
  if (n == 0 || k == 0) return z;
  std::vector<double> d;
  std::vector<double> e;  // tred2 layout: e[i] couples i-1 and i
  const double scale = ScaledTridiagonal(d_in, e_in, d, e);
  const double inv_scale = scale > 0.0 ? 1.0 / scale : 1.0;
  std::vector<double> off(e.begin() + 1, e.end());  // off[i] couples i, i+1

  // dstein's constants: 1-norm of T, the clustering distance for
  // reorthogonalization, the growth that marks a converged iterate, and the
  // iteration budget.
  double onenrm = 0.0;
  for (int i = 0; i < n; ++i) {
    double row = std::fabs(d[i]);
    if (i > 0) row += std::fabs(off[i - 1]);
    if (i + 1 < n) row += std::fabs(off[i]);
    onenrm = std::max(onenrm, row);
  }
  // T = 0: every vector is an eigenvector; any positive norm keeps the
  // iterates from collapsing to zero.
  if (onenrm == 0.0) onenrm = 1.0;
  const double eps = std::numeric_limits<double>::epsilon();
  const double ortol = 1e-3 * onenrm;
  const double dtpcrt = std::sqrt(0.1 / n);
  constexpr int kMaxIterations = 5;
  constexpr int kExtraIterations = 2;

  Rng rng(1);
  ShiftedTridiagonalLU lu;
  std::vector<double> y(n);
  auto abs_max_index = [&]() {
    int at = 0;
    for (int i = 1; i < n; ++i) {
      if (std::fabs(y[i]) > std::fabs(y[at])) at = i;
    }
    return at;
  };
  int group_start = 0;
  double prev_shift = 0.0;
  for (int j = 0; j < k; ++j) {
    double shift = eigenvalues[j] * inv_scale;
    if (j > 0) {
      // Numerically equal eigenvalues get distinct shifts, so the solves
      // amplify different directions of their eigenspace.
      const double pertol = 10.0 * std::fabs(eps * shift);
      if (shift - prev_shift < pertol) shift = prev_shift + pertol;
      if (std::fabs(shift - prev_shift) > ortol) group_start = j;
    }
    for (double& v : y) v = 2.0 * rng.NextDouble() - 1.0;
    lu.Factor(d, off, shift);
    int checks_passed = 0;
    for (int it = 0; it < kMaxIterations; ++it) {
      const double scl = n * onenrm * std::max(eps, std::fabs(lu.a[n - 1])) /
                         std::fabs(y[abs_max_index()]);
      for (double& v : y) v *= scl;
      lu.Solve(y);
      // Modified Gram-Schmidt against the earlier vectors of the cluster.
      for (int i = group_start; i < j; ++i) {
        double dot = 0.0;
        for (int r = 0; r < n; ++r) dot += y[r] * z(r, i);
        for (int r = 0; r < n; ++r) y[r] -= dot * z(r, i);
      }
      if (std::fabs(y[abs_max_index()]) < dtpcrt) continue;
      if (++checks_passed > kExtraIterations) break;
    }
    double norm = 0.0;
    for (double v : y) norm += v * v;
    double scl = 1.0 / std::sqrt(norm);
    if (y[abs_max_index()] < 0.0) scl = -scl;
    for (int r = 0; r < n; ++r) z(r, j) = y[r] * scl;
    prev_shift = shift;
  }
  return z;
}

}  // namespace roadpart
