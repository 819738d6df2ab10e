#ifndef ROADPART_CORE_ALPHA_CUT_H_
#define ROADPART_CORE_ALPHA_CUT_H_

#include <vector>

#include "common/status.h"
#include "core/spectral_common.h"
#include "graph/csr_graph.h"
#include "linalg/dense_matrix.h"

namespace roadpart {

/// The paper's novel k-way cut (Section 5). Its matrix
///   M = (d d^T) / s - A,   d = weighted degrees, s = 1^T d,
/// is the negative of the Newman modularity matrix; partitioning selects the
/// k smallest eigenvectors of M (Equation 6 / Algorithm 3).
class AlphaCutMethod : public SpectralCutMethod {
 public:
  explicit AlphaCutMethod(const SpectralOptions& spectral = {})
      : spectral_(spectral) {}

  Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const override;
  double PartitionTerm(double volume, double internal, int size,
                       double total) const override;
  const char* name() const override { return "alpha-cut"; }

 private:
  SpectralOptions spectral_;
};

/// Options for the one-call alpha-Cut partitioner.
struct AlphaCutOptions {
  SpectralOptions spectral;
  SpectralPipelineOptions pipeline;
};

/// Partitions a weighted graph into k partitions with alpha-Cut
/// (Algorithm 3 end to end).
Result<GraphCutResult> AlphaCutPartition(const CsrGraph& graph, int k,
                                         const AlphaCutOptions& options = {});

/// The relaxed matrix-form objective sum_i (c_i^T M c_i) / (c_i^T c_i)
/// (Equation 6) for a discrete assignment.
double AlphaCutObjective(const CsrGraph& graph,
                         const std::vector<int>& assignment);

/// Equation 5 with a constant alpha (the ablation form; the adaptive vector
/// alpha_i = W(P_i, V)/W(V, V) is what AlphaCutObjective uses implicitly).
double AlphaCutObjectiveConstAlpha(const CsrGraph& graph,
                                   const std::vector<int>& assignment,
                                   double alpha);

/// Materialized alpha-Cut matrix M (for tests and small problems).
DenseMatrix AlphaCutMatrix(const CsrGraph& graph);

}  // namespace roadpart

#endif  // ROADPART_CORE_ALPHA_CUT_H_
