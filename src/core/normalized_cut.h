#ifndef ROADPART_CORE_NORMALIZED_CUT_H_
#define ROADPART_CORE_NORMALIZED_CUT_H_

#include <vector>

#include "common/status.h"
#include "core/spectral_common.h"
#include "graph/csr_graph.h"

namespace roadpart {

/// Shi & Malik's normalized cut [11] in its k-way spectral form (the paper's
/// NG / NSG baselines): embed with the k dominant eigenvectors of
/// D^{-1/2} A D^{-1/2} (equivalently the k smallest of the normalized
/// Laplacian), row-normalize, cluster.
class NormalizedCutMethod : public SpectralCutMethod {
 public:
  explicit NormalizedCutMethod(const SpectralOptions& spectral = {})
      : spectral_(spectral) {}

  Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const override;
  double PartitionTerm(double volume, double internal, int size,
                       double total) const override;
  const char* name() const override { return "normalized-cut"; }

 private:
  SpectralOptions spectral_;
};

/// Options for the one-call normalized-cut partitioner.
struct NormalizedCutOptions {
  SpectralOptions spectral;
  SpectralPipelineOptions pipeline;
};

/// Partitions a weighted graph into k partitions with normalized cut,
/// through the same pipeline as alpha-Cut for a like-for-like comparison.
Result<GraphCutResult> NormalizedCutPartition(
    const CsrGraph& graph, int k, const NormalizedCutOptions& options = {});

/// The k-way normalized-cut objective sum_i W(P_i, ~P_i) / W(P_i, V).
double NormalizedCutObjective(const CsrGraph& graph,
                              const std::vector<int>& assignment);

}  // namespace roadpart

#endif  // ROADPART_CORE_NORMALIZED_CUT_H_
