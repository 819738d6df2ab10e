#include "core/alpha_cut.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "linalg/linear_operator.h"
#include "linalg/sparse_matrix.h"

namespace roadpart {

DenseMatrix AlphaCutMatrix(const CsrGraph& graph) {
  const int n = graph.num_nodes();
  const SparseMatrix& adjacency = graph.ToSparseMatrix();
  DenseMatrix a = adjacency.ToDense();
  const std::vector<double> d = adjacency.RowSums();
  double s = 0.0;
  for (double x : d) s += x;
  DenseMatrix m(n, n);
  // Row-blocked fill; rows are written disjointly.
  ParallelForBlocked(n, /*grain=*/64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      int row = static_cast<int>(i);
      for (int j = 0; j < n; ++j) {
        m(row, j) = (s > 0.0 ? d[row] * d[j] / s : 0.0) - a(row, j);
      }
    }
  });
  return m;
}

Result<DenseMatrix> AlphaCutMethod::Embed(const CsrGraph& graph, int k) const {
  const SparseMatrix& a = graph.ToSparseMatrix();
  SparseOperator a_op(a);
  std::vector<double> d = a.RowSums();
  double s = 0.0;
  for (double x : d) s += x;
  // Non-finite degree mass would spread NaN through every Lanczos iterate.
  RP_DCHECK(std::isfinite(s));
  // M x = d (d.x)/s - A x.
  RankOneUpdatedOperator m_op(a_op, d, s > 0.0 ? 1.0 / s : 0.0, -1.0);
  EigenSolveDiagnostics solve;
  RP_ASSIGN_OR_RETURN(DenseMatrix y,
                      ExtremeEigenvectors(m_op, k, SpectrumEnd::kSmallest,
                                          spectral_, &solve));
  RecordEigenSolve(solve);
  return RowNormalize(y);
}

double AlphaCutMethod::PartitionTerm(double volume, double internal, int size,
                                     double total) const {
  if (size <= 0) return 0.0;
  double vol_sq_over_s = total > 0.0 ? volume * volume / total : 0.0;
  return (vol_sq_over_s - internal) / size;
}

double AlphaCutObjective(const CsrGraph& graph,
                         const std::vector<int>& assignment) {
  return AlphaCutMethod().Objective(graph, assignment);
}

double AlphaCutObjectiveConstAlpha(const CsrGraph& graph,
                                   const std::vector<int>& assignment,
                                   double alpha) {
  int k = 0;
  for (int a : assignment) k = std::max(k, a + 1);
  const PartitionSums sums = SumPartitions(graph, assignment, k);
  double value = 0.0;
  for (int p = 0; p < k; ++p) {
    if (sums.size[p] == 0) continue;
    double cut = sums.volume[p] - sums.internal[p];
    value += (alpha * cut - (1.0 - alpha) * sums.internal[p]) / sums.size[p];
  }
  return value;
}

Result<GraphCutResult> AlphaCutPartition(const CsrGraph& graph, int k,
                                         const AlphaCutOptions& options) {
  AlphaCutMethod method(options.spectral);
  return SpectralKWayPartition(graph, k, method, options.pipeline);
}

}  // namespace roadpart
