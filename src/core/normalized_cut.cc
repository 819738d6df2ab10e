#include "core/normalized_cut.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"

namespace roadpart {

namespace {

// y = D^{-1/2} A D^{-1/2} x, with zero-degree nodes treated as isolated.
class NormalizedAdjacencyOperator : public LinearOperator {
 public:
  explicit NormalizedAdjacencyOperator(const SparseMatrix& a)
      : a_(a), inv_sqrt_deg_(a.rows(), 0.0), scratch_(a.rows(), 0.0) {
    std::vector<double> deg = a.RowSums();
    for (int i = 0; i < a.rows(); ++i) {
      // A non-finite degree would propagate NaN through every Apply call.
      RP_DCHECK(std::isfinite(deg[i]));
      if (deg[i] > 0.0) inv_sqrt_deg_[i] = 1.0 / std::sqrt(deg[i]);
    }
  }

  int Dim() const override { return a_.rows(); }

  void Apply(const double* x, double* y) const override {
    constexpr int64_t kGrain = 8192;
    ParallelForBlocked(a_.rows(), kGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        scratch_[i] = inv_sqrt_deg_[i] * x[i];
      }
    });
    a_.Multiply(scratch_.data(), y);
    ParallelForBlocked(a_.rows(), kGrain, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) y[i] *= inv_sqrt_deg_[i];
    });
  }

 private:
  const SparseMatrix& a_;
  std::vector<double> inv_sqrt_deg_;
  mutable std::vector<double> scratch_;
};

}  // namespace

Result<DenseMatrix> NormalizedCutMethod::Embed(const CsrGraph& graph,
                                               int k) const {
  NormalizedAdjacencyOperator n_op(graph.ToSparseMatrix());
  // Largest eigenvectors of D^{-1/2} A D^{-1/2} == smallest of L_sym; the
  // extreme end converges faster under Lanczos.
  EigenSolveDiagnostics solve;
  RP_ASSIGN_OR_RETURN(
      DenseMatrix y,
      ExtremeEigenvectors(n_op, k, SpectrumEnd::kLargest, spectral_, &solve));
  RecordEigenSolve(solve);
  return RowNormalize(y);
}

double NormalizedCutMethod::PartitionTerm(double volume, double internal,
                                          int size, double total) const {
  (void)size;
  (void)total;
  if (volume <= 0.0) return 0.0;
  return (volume - internal) / volume;
}

double NormalizedCutObjective(const CsrGraph& graph,
                              const std::vector<int>& assignment) {
  return NormalizedCutMethod().Objective(graph, assignment);
}

Result<GraphCutResult> NormalizedCutPartition(
    const CsrGraph& graph, int k, const NormalizedCutOptions& options) {
  NormalizedCutMethod method(options.spectral);
  return SpectralKWayPartition(graph, k, method, options.pipeline);
}

}  // namespace roadpart
