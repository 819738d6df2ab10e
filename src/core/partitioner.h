#ifndef ROADPART_CORE_PARTITIONER_H_
#define ROADPART_CORE_PARTITIONER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/alpha_cut.h"
#include "core/checkpoint.h"
#include "core/ji_geroliminis.h"
#include "core/normalized_cut.h"
#include "core/refinement.h"
#include "core/supergraph_miner.h"
#include "network/density_sanitizer.h"
#include "network/road_graph.h"
#include "network/road_network.h"

namespace roadpart {

/// The evaluation schemes of Section 6.3:
///  - AG:  alpha-Cut directly on the (Gaussian-weighted) road graph
///  - ASG: alpha-Cut on the mined road supergraph
///  - NG:  normalized cut directly on the road graph (the baseline)
///  - NSG: normalized cut on the road supergraph
///  - JiGeroliminis: the three-phase method of [5]
enum class Scheme { kAG, kASG, kNG, kNSG, kJiGeroliminis };

const char* SchemeName(Scheme scheme);
/// Inverse of SchemeName; "JIG" also names kJiGeroliminis.
Result<Scheme> ParseScheme(std::string_view name);

/// End-to-end framework configuration.
struct PartitionerOptions {
  Scheme scheme = Scheme::kASG;
  /// Desired number of partitions. k = 1 returns the one all-zero region
  /// with objective 0 right after density sanitization: no mining, no
  /// solve, no checkpoint stage.
  int k = 6;
  SupergraphMinerOptions miner;           ///< module 2 (supergraph schemes)
  SpectralOptions spectral;               ///< eigensolver policy
  KMeansOptions kmeans;                   ///< embedding clustering
  JiGeroliminisOptions ji;                ///< baseline parameters
  bool enforce_exact_k = true;            ///< reduce k' -> k (Section 5.4)
  /// Which Section 5.4 reduction runs when k' > k. The paper adopts
  /// recursive bipartitioning; greedy pruning often merges better on large
  /// supergraphs (see bench_ablation_kprime).
  ExactKMethod exact_k_method = ExactKMethod::kRecursiveBipartition;
  bool enforce_connectivity = true;       ///< guarantee condition C.2
  /// Post-pass moving boundary segments between partitions when that lowers
  /// the cut objective (extension; see core/refinement.h). Off by default to
  /// match the paper's pipeline.
  bool refine_boundary = false;
  RefinementOptions refinement;
  uint64_t seed = 1;  ///< randomizes embedding k-means (paper: 100 reruns)
  /// Wall-clock budget for the whole run, checked between modules (never
  /// inside a kernel): an expired budget returns Status::DeadlineExceeded
  /// and no partition. 0 disables the deadline.
  double deadline_seconds = 0.0;
  /// What to do with invalid segment densities (NaN/Inf/negative) before
  /// they enter the pipeline: reject the run, or repair them and record the
  /// repairs in RunDiagnostics.
  DensityPolicy density_policy = DensityPolicy::kReject;
  /// Worker threads for the spectral kernels (SpMV, operator applies,
  /// reorthogonalization, row normalization, k-means restarts). 0 keeps the
  /// process-wide default (SetDefaultParallelism / RP_THREADS / hardware).
  /// Purely a performance knob: every kernel uses fixed block decompositions
  /// with order-fixed reductions, so results are bit-identical for any value
  /// (see tests/parallel_determinism_test.cc).
  int num_threads = 0;
  /// Stage-level checkpoint/resume (core/checkpoint.h). With a non-empty
  /// `checkpoint.dir` the run persists each completed pipeline stage as a
  /// durable artifact keyed to this run; with `checkpoint.resume` it adopts
  /// valid completed stages, producing output bit-identical to an
  /// uninterrupted run. A corrupt, foreign or undecodable stage recomputes
  /// with a warning; it never fails the run.
  CheckpointOptions checkpoint;
  /// When non-empty, PartitionNetwork exports the finished partition as an
  /// immutable serving snapshot (serve/snapshot.h, format "rpsnap") at this
  /// path, written atomically through the checksummed artifact envelope with
  /// `checkpoint.retry` bounding transient write faults. Requires network
  /// geometry, so PartitionRoadGraph ignores it. Purely an output sink —
  /// excluded from CanonicalOptionsString.
  std::string snapshot_path;
  /// When non-null, receives the top-level spectral embedding of the cut
  /// (SpectralPipelineOptions::embedding_sink): the n x k matrix k-means
  /// clustered — n is the cut target's order, i.e. the supergraph's for
  /// ASG/NSG. The incremental repartitioner caches it between intervals to
  /// warm-start the next Lanczos solve. A pure observer: non-owning, never
  /// read, excluded from CanonicalOptionsString, and left untouched when a
  /// resumed checkpoint skips the cut.
  DenseMatrix* embedding_sink = nullptr;
};

/// Canonical text of every output-affecting field of PartitionerOptions.
/// Excludes the knobs that cannot change the result: num_threads (kernels
/// are thread-count-invariant), deadline_seconds (an expired deadline fails
/// the run rather than altering it), the checkpoint policy itself, and
/// snapshot_path (an output sink, not an input).
/// Doubles are rendered as IEEE bit patterns, so equal strings mean exactly
/// equal configurations. Hashed into the run key of every checkpoint stage.
std::string CanonicalOptionsString(const PartitionerOptions& options);

/// Everything a caller needs to judge *how* a run succeeded: which rung of
/// the eigensolver ladder produced the embedding, what the sanitizer had to
/// repair, and how much deadline slack each module left. Surfaced by
/// roadpart_cli and the benchmark harness.
struct RunDiagnostics {
  EigenSolveDiagnostics eigen;          ///< solver path, restarts, residual
  DensityRepairReport density_repairs;  ///< input sanitization repairs
  double deadline_seconds = 0.0;        ///< configured budget (0 = none)
  /// Budget remaining after each module finished; -1 when the module did not
  /// run or no deadline was configured.
  double slack_module1_seconds = -1.0;
  double slack_module2_seconds = -1.0;
  double slack_module3_seconds = -1.0;
  /// Human-readable degradation notes (best-effort solves, repairs, ...).
  std::vector<std::string> warnings;

  /// True when nothing degraded: converged solver, clean input, no warnings.
  bool clean() const {
    return eigen.all_converged && density_repairs.total_repaired() == 0 &&
           warnings.empty();
  }

  /// Multi-line summary for logs / CLI output.
  std::string ToString() const;
};

/// Framework output, including the Table-3 module timing breakdown.
struct PartitionOutcome {
  std::vector<int> assignment;  ///< partition id per road segment
  int k_final = 0;
  int k_prime = 0;          ///< partitions before the exact-k reduction
  int num_supernodes = 0;   ///< 0 for non-supergraph schemes
  double objective = 0.0;   ///< cut objective on the partitioned graph
  double module1_seconds = 0.0;  ///< road graph construction
  double module2_seconds = 0.0;  ///< supergraph mining
  double module3_seconds = 0.0;  ///< (super)graph partitioning
  SupergraphMiningReport mining_report;  ///< filled for ASG / NSG
  RunDiagnostics diagnostics;            ///< resilience-layer telemetry
};

/// Codec of the 'final' checkpoint stage (core/checkpoint.h): the finished
/// run, minus what a resumed run re-derives or reports afresh. Module
/// times, the mining report (its own stage) and every diagnostic except
/// `diagnostics.eigen` are not stored; the warnings in particular come back
/// from the stored eigen record and the resumed run's own input
/// sanitization, exactly as an uninterrupted run derives them. Decoding
/// rejects, as Corruption, an assignment that is not a dense labelling of
/// `num_nodes` nodes by [0, k_final).
std::string EncodeFinalCheckpoint(const PartitionOutcome& outcome);
Result<PartitionOutcome> DecodeFinalCheckpoint(LineCursor cursor,
                                               int num_nodes);

/// Facade over the full framework of Figure 2. One instance is reusable
/// across networks and timestamps.
class Partitioner {
 public:
  explicit Partitioner(PartitionerOptions options)
      : options_(std::move(options)) {}

  const PartitionerOptions& options() const { return options_; }

  /// Runs modules 1-3 on a road network (module 1 = dual-graph
  /// construction is included in the timing breakdown).
  Result<PartitionOutcome> PartitionNetwork(const RoadNetwork& network) const;

  /// Runs modules 2-3 on a pre-built road graph.
  Result<PartitionOutcome> PartitionRoadGraph(const RoadGraph& graph) const;

 private:
  /// Modules 2-3 with `consumed_seconds` already charged against the
  /// deadline (module-1 time when called from PartitionNetwork).
  Result<PartitionOutcome> PartitionWithBudget(const RoadGraph& graph,
                                               double consumed_seconds) const;

  PartitionerOptions options_;
};

}  // namespace roadpart

#endif  // ROADPART_CORE_PARTITIONER_H_
