#ifndef ROADPART_CORE_SPECTRAL_COMMON_H_
#define ROADPART_CORE_SPECTRAL_COMMON_H_

#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "graph/csr_graph.h"
#include "linalg/lanczos.h"
#include "linalg/linear_operator.h"

namespace roadpart {

/// What ExtremeEigenvectors does when Lanczos exhausts its subspace budget
/// without converging (the fallback ladder of the numerical resilience
/// layer). Every policy except kFail first climbs the ladder's retry rung.
enum class NonConvergencePolicy {
  kFail,           ///< no ladder: NotConverged at the configured budget
  kRetry,          ///< resume Lanczos past the budget, then NotConverged
  kFallbackDense,  ///< retry, then dense solve when n permits, else NotConverged
  kBestEffort,     ///< full ladder, then accept the best estimate with a warning
};

/// Which rung of the eigensolver ladder produced the returned vectors,
/// ordered by escalation so diagnostics can merge with max().
enum class SolverPath {
  kNone = 0,         ///< no solve recorded yet
  kDense,            ///< primary dense solve (n <= dense_threshold)
  kLanczosFirstTry,  ///< Lanczos converged as configured
  kLanczosRetry,     ///< converged after resuming past the configured budget
  kDenseFallback,    ///< dense solve after both Lanczos rungs failed
  kBestEffort,       ///< non-converged estimate accepted under kBestEffort
};

const char* SolverPathName(SolverPath path);

/// Eigensolver diagnostics accumulated across one or more solves.
struct EigenSolveDiagnostics {
  SolverPath solver_path = SolverPath::kNone;  ///< highest rung used
  int solves = 0;             ///< ExtremeEigenvectors calls recorded
  int lanczos_restarts = 0;   ///< internal Lanczos restarts, summed
  double worst_ritz_residual = 0.0;
  bool all_converged = true;  ///< false iff any solve ended best-effort

  /// Folds `other` in: max path, summed counters, worst residual.
  void Merge(const EigenSolveDiagnostics& other);
};

/// Controls how eigenvectors are extracted.
struct SpectralOptions {
  /// At or below this operator order the dense Householder+QL solver runs
  /// (exact); above it the Lanczos solver (the paper's scalability path).
  int dense_threshold = 600;
  LanczosOptions lanczos;
  /// Fallback ladder policy when Lanczos does not converge. The library
  /// default favors availability: climb the whole ladder and only then
  /// accept a best-effort estimate (with a warning) rather than erroring —
  /// strictly better than the historical silent accept. Batch/CI callers
  /// wanting hard failures select kFail or kRetry.
  NonConvergencePolicy on_nonconvergence = NonConvergencePolicy::kBestEffort;
  /// Largest operator order the kFallbackDense / kBestEffort rungs will
  /// materialize for a dense solve (O(n^2) memory, O(n^3) time).
  int dense_fallback_max = 4096;
};

/// k eigenvectors at the chosen end of a symmetric operator's spectrum, as
/// the columns of an n x k matrix (ascending eigenvalue order). Runs the
/// non-convergence fallback ladder of `options.on_nonconvergence`:
/// Lanczos to the configured budget -> the same solver resumed to twice
/// that budget (at least 100 rows more) with one extra checkpoint -> dense
/// solve when the order permits -> NotConverged with residual diagnostics
/// (or a best-effort accept of the best checkpoint's estimate). Both Lanczos
/// rungs run the plain factorization to its checkpoint at twice the first
/// dimension and, if that misses, the Chebyshev-filtered one (see
/// LanczosSolver); the retry rung resumes whichever factorization rung 1
/// stopped in, which at the default budget is the filtered one.
/// `diagnostics`, when given, receives the path taken, restart count
/// (checkpoints after the first, both Lanczos rungs together) and worst
/// residual (a Ritz estimate at a plain checkpoint, the true residual at a
/// filtered one).
Result<DenseMatrix> ExtremeEigenvectors(const LinearOperator& op, int k,
                                        SpectrumEnd end,
                                        const SpectralOptions& options,
                                        EigenSolveDiagnostics* diagnostics =
                                            nullptr);

/// Row-normalizes Y to unit-length rows (Equation 8). All-zero rows are left
/// as zero. A non-finite entry (NaN/Inf row) returns Status::Internal in
/// every build type — a poisoned embedding must not reach k-means.
Result<DenseMatrix> RowNormalize(const DenseMatrix& y);

/// Reweights a binary road-graph adjacency with the Gaussian congestion
/// similarity exp(-(f_u - f_v)^2 / (2 sigma^2)) — the affinity used when
/// cutting the road graph directly (schemes AG / NG). sigma^2 is the mean
/// squared *adjacent-pair* feature difference (a local scale; the global
/// variance would saturate every weight at ~1). Zero-variance features yield
/// all-ones weights.
///
/// With `degree_normalize` (the default) the weights are then divided by
/// sqrt(d_u d_v): the dual road graph turns every intersection into a
/// clique, and those topology-induced hubs otherwise dominate the extreme
/// eigenvectors of the alpha-Cut matrix with localized modes that carry no
/// congestion information.
CsrGraph GaussianWeightedGraph(const CsrGraph& adjacency,
                               const std::vector<double>& features,
                               bool degree_normalize = true);

/// Result of a k-way spectral graph cut.
struct GraphCutResult {
  std::vector<int> assignment;  ///< dense partition ids per node
  int k_final = 0;              ///< number of partitions returned
  int k_prime = 0;              ///< partitions before the exact-k reduction
  double objective = 0.0;       ///< method-specific objective of `assignment`
  EigenSolveDiagnostics eigen;  ///< solver-ladder diagnostics, all embeds
};

/// Per-partition sums of a labelling: the inputs of
/// SpectralCutMethod::PartitionTerm.
struct PartitionSums {
  std::vector<double> volume;    ///< sum of member weighted degrees
  std::vector<double> internal;  ///< ordered-pair weight, intra edges twice
  std::vector<int> size;         ///< node count
  double total = 0.0;            ///< the graph's 1^T d (twice the weight)
};

/// One pass over the graph, nodes and neighbours in stored order, summing
/// each partition of `assignment` (one label in [0, k) per node; a label may
/// go unused).
PartitionSums SumPartitions(const CsrGraph& graph,
                            const std::vector<int>& assignment, int k);

/// A spectral k-way cut method is defined by its embedding.
class SpectralCutMethod {
 public:
  virtual ~SpectralCutMethod() = default;

  /// Eigensolver diagnostics accumulated across every Embed call since the
  /// last reset (top-level embedding plus bipartition sub-solves). The
  /// accumulator is mutable state on a const method: one pipeline at a time
  /// per instance — not safe for concurrent SpectralKWayPartition calls
  /// sharing a method object.
  const EigenSolveDiagnostics& eigen_diagnostics() const { return eigen_diag_; }
  void ResetEigenDiagnostics() const { eigen_diag_ = EigenSolveDiagnostics(); }

  /// Spectral embedding of the weighted graph into `k` dimensions
  /// (row-normalized; one row per node).
  virtual Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const = 0;

  /// Objective value of an assignment (smaller = better). By default the
  /// sum of PartitionTerm over the partitions of SumPartitions, labels
  /// [0, max label]; an empty partition adds 0.
  virtual double Objective(const CsrGraph& graph,
                           const std::vector<int>& assignment) const;

  /// One partition's contribution to the objective, given its weighted
  /// volume (sum of member degrees), its ordered-pair internal weight
  /// (each intra edge counted twice), its node count and the graph's total
  /// ordered weight (1^T d). Lets the greedy k'->k pruning evaluate merges
  /// in O(1) — the paper's "merges the two nearest partitions optimizing
  /// the defined graph cut".
  virtual double PartitionTerm(double volume, double internal, int size,
                               double total) const = 0;

  virtual const char* name() const = 0;

 protected:
  /// Called by Embed implementations after each eigensolve.
  void RecordEigenSolve(const EigenSolveDiagnostics& solve) const {
    eigen_diag_.Merge(solve);
  }

 private:
  mutable EigenSolveDiagnostics eigen_diag_;
};

/// How k' > k partitions are reduced to exactly k (Section 5.4 discusses
/// both; the paper adopts recursive bipartitioning for efficiency).
enum class ExactKMethod {
  kRecursiveBipartition,  ///< the paper's choice (Algorithm 3 lines 12-24)
  kGreedyMerge,           ///< iteratively merge the two closest partitions
};

/// Options shared by the k-way pipeline of Algorithm 3.
struct SpectralPipelineOptions {
  KMeansOptions kmeans;
  /// Reduce k' > k partitions to exactly k by global recursive
  /// bipartitioning of the partition-connectivity matrix (Section 5.4).
  bool enforce_exact_k = true;
  ExactKMethod exact_k_method = ExactKMethod::kRecursiveBipartition;
  /// Post-pass guaranteeing condition C.2: disconnected fragments of a final
  /// partition are merged into their best-connected neighbour partition.
  bool enforce_connectivity = true;
  /// Optional observer of the *top-level* spectral embedding Z (the n x k
  /// matrix k-means clusters; bipartition sub-solves never touch it).
  /// Written exactly once per SpectralKWayPartition call when non-null —
  /// the incremental repartitioner caches it to warm-start next interval's
  /// Lanczos. Non-owning, never read, and excluded from canonical-options
  /// serialization: a pure observer cannot change the partition.
  DenseMatrix* embedding_sink = nullptr;
};

/// The complete k-way pipeline of Algorithm 3, parameterized by the cut
/// method: embed -> k-means on rows -> split clusters into connected
/// components (k' >= k) -> optional recursive bipartitioning back to k ->
/// optional connectivity enforcement.
Result<GraphCutResult> SpectralKWayPartition(
    const CsrGraph& graph, int k, const SpectralCutMethod& method,
    const SpectralPipelineOptions& options);

/// Renumbers partition ids densely in [0, k) preserving first-appearance
/// order; returns k.
int DensifyAssignment(std::vector<int>& assignment);

/// Structural audit of a partition labelling: `assignment` must have
/// `num_nodes` entries, every label must lie in [0, num_partitions), and —
/// when `require_all_labels_used` — every label must own at least one node
/// (no empty partition after condensation). Returns the first violation.
/// O(n); run behind RP_DCHECK on hot paths.
Status ValidatePartitionLabels(const std::vector<int>& assignment,
                               int num_nodes, int num_partitions,
                               bool require_all_labels_used = true);

/// Merges disconnected fragments of each partition into their strongest-
/// connected neighbouring partition until every partition is connected
/// (condition C.2). Ids come out dense.
void EnforcePartitionConnectivity(const CsrGraph& graph,
                                  std::vector<int>& assignment);

/// Partition-connectivity matrix A' of Section 5.4:
///   A'(i,j) = sqrt( (1/numadj(P_i,P_j)) * sum_{p in P_i, q in P_j} A(p,q)^2 )
/// over adjacent partition pairs.
Result<CsrGraph> PartitionConnectivityGraph(const CsrGraph& graph,
                                            const std::vector<int>& assignment,
                                            int num_partitions);

}  // namespace roadpart

#endif  // ROADPART_CORE_SPECTRAL_COMMON_H_
