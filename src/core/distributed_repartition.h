#ifndef ROADPART_CORE_DISTRIBUTED_REPARTITION_H_
#define ROADPART_CORE_DISTRIBUTED_REPARTITION_H_

/// Section 6.4 incremental per-region re-partitioning.
///
/// The paper's route to real-time operation: after the whole network has
/// been partitioned once, subsequent intervals re-partition each region
/// *independently*. Done naively — every region through the full spectral
/// pipeline, every interval — that refresh can come out slower than one
/// global re-partition (near-uniform regions drive the miner into its
/// degenerate strictest-stability re-mine and a large dense solve). The
/// IncrementalRepartitioner below makes the refresh genuinely incremental:
///
///  - Dirty-region detection. Each Refresh ingests the interval's densities
///    and re-cuts only the regions whose internal density spread moved by
///    more than `trigger_ratio` global scales since *their last cut*, or
///    whose boundary densities shifted by more than `boundary_delta_ratio`
///    global scales. Clean regions reuse their cached sub-assignment
///    byte-for-byte at zero cost.
///
///  - Warm-started spectral embeddings. Each re-cut caches its top-level
///    spectral embedding (as the column-sum vector); the next re-cut of the
///    same region seeds its Lanczos from it (LanczosOptions::warm_start).
///    A warm vector that no longer fits (the ASG supergraph changed order)
///    or fails validation is silently dropped — the PR-3 fallback ladder is
///    untouched. The cache survives process restarts via
///    SaveCache/LoadCache (the keyed "rpinc" format; see "Keyed state
///    formats" in DESIGN.md).
///
///  - Deterministic parallel fan-out. Dirty regions run through
///    ParallelForTasks with one outcome slot per region and a serial merge
///    in region order, so the refreshed assignment is bit-identical for
///    every thread count.
///
/// Thread-oversubscription policy: when the region fan-out is parallel
/// (more than one worker), each region's inner Partitioner is pinned to
/// num_threads = 1 — the parallelism budget is spent across regions, never
/// multiplied region-count × kernel-threads. When the fan-out runs serially
/// the inner partitioner keeps its configured thread count, so single-region
/// refreshes still use the kernels' data parallelism. (The parallel runtime
/// additionally enforces this cap for any nested helper; see
/// common/parallel.h.) Thread counts never change the resulting bytes.

#include <string>
#include <vector>

#include "common/status.h"
#include "core/partitioner.h"
#include "graph/csr_graph.h"
#include "network/road_graph.h"

namespace roadpart {

/// Options for region-local re-partitioning.
struct DistributedRepartitionOptions {
  /// Configuration used inside each region (its `k` field is the number of
  /// sub-partitions per region; regions smaller than that stay whole).
  PartitionerOptions partitioner;
  /// Dirty-region trigger on internal spread. A region with no cached cut is
  /// dirty when its density spread exceeds `trigger_ratio` times the global
  /// density scale; a region with a cached cut is dirty when its spread
  /// *moved* by more than that much since the cut. <= 0 marks every region
  /// dirty on every refresh (the historical always-recut behavior).
  double trigger_ratio = 0.0;
  /// Dirty-region trigger on boundary shift: a cached region is also dirty
  /// when the mean absolute density change over its boundary nodes (nodes
  /// with a neighbour in another region) since its last cut exceeds this
  /// multiple of the global density scale. <= 0 disables the boundary rule.
  double boundary_delta_ratio = 0.0;
  /// Seed each region's Lanczos from the region's previous top-level
  /// embedding (see file comment). Never changes which partition is feasible
  /// — only how fast the eigensolver reaches it.
  bool warm_start_embeddings = true;
  /// Worker threads for the per-region fan-out (regions are independent).
  /// 0 = the process default, 1 = sequential. See the oversubscription
  /// policy in the file comment.
  int num_threads = 0;
};

/// Per-region outcome of one refresh, for phase breakdowns and diagnostics.
struct RegionRefreshInfo {
  int region = 0;       ///< region id in the frozen top-level assignment
  int size = 0;         ///< nodes in the region
  bool dirty = false;   ///< failed the trigger and was re-cut this refresh
  bool repartitioned = false;  ///< re-cut actually produced > 1 sub-partition
  bool warm_started = false;   ///< the cached embedding seeded the solver
  int k = 1;            ///< sub-partitions this region contributes
  double seconds = 0.0;  ///< sub-partition wall time (0 for clean regions)
  /// kOk unless this region's re-cut failed (deadline overrun, rejected
  /// densities, non-convergence under a strict policy, ...). A failed region
  /// is kept whole — the refresh still succeeds — but the typed code lets a
  /// supervisor treat the interval as degraded instead of trusting it.
  StatusCode failure = StatusCode::kOk;
};

/// Aggregate counters and the phase breakdown of one refresh.
struct RepartitionRefreshStats {
  int regions = 0;        ///< non-empty regions
  int dirty = 0;          ///< regions re-cut this refresh
  int clean = 0;          ///< regions that reused their cached cut
  int warm_started = 0;   ///< dirty regions whose warm start was accepted
  int warm_rejected = 0;  ///< dirty regions whose warm start was dropped
  int failed = 0;         ///< dirty regions whose re-cut failed (kept whole)
  /// Code of the first failed region in region order; kOk when failed == 0.
  StatusCode first_failure = StatusCode::kOk;
  double trigger_seconds = 0.0;       ///< serial dirty-region detection
  double subpartition_seconds = 0.0;  ///< parallel region fan-out (wall)
  double merge_seconds = 0.0;         ///< serial label merge + cache update
  std::vector<RegionRefreshInfo> region_info;  ///< one row per region
};

/// Result of one distributed re-partitioning round.
struct DistributedRepartitionResult {
  std::vector<int> assignment;  ///< refreshed partition ids (dense)
  int k_final = 0;
  int regions_repartitioned = 0;
  double seconds = 0.0;
  RepartitionRefreshStats stats;
};

/// The incremental engine. Bound at Create() to a frozen region assignment
/// over a fixed topology; each Refresh() ingests one interval's densities
/// and returns the refreshed sub-partitioning. All state that makes the
/// refresh incremental (cached cuts, spreads at cut, boundary densities at
/// cut, warm-start embeddings) lives here, keyed by region.
class IncrementalRepartitioner {
 public:
  /// Validates the region assignment against the graph and precomputes the
  /// per-region structures (node lists, induced subgraphs, boundary nodes).
  /// The engine copies what it needs; `road_graph` need not outlive it.
  static Result<IncrementalRepartitioner> Create(
      const RoadGraph& road_graph, const std::vector<int>& region_assignment,
      const DistributedRepartitionOptions& options);

  /// One interval: dirty-region detection over `densities` (one value per
  /// node of the bound graph), parallel re-cut of the dirty regions, serial
  /// merge. Deterministic: the same engine state and densities produce the
  /// same bytes at every thread count. The first Refresh after Create (or
  /// after a failed LoadCache) has no cached cuts, so it pays the full
  /// per-region price once; later refreshes only pay for dirty regions.
  Result<DistributedRepartitionResult> Refresh(
      const std::vector<double>& densities);

  /// Persists the engine's incremental state (cached cuts + warm embeddings)
  /// as an "rpinc" artifact keyed by the bound topology, region assignment,
  /// and output-affecting options.
  Status SaveCache(const std::string& path) const;

  /// Restores state saved by SaveCache. Returns true when the cache was
  /// adopted; any rejected cache returns false with one warning recorded
  /// and leaves the engine cold — never an error.
  bool LoadCache(const std::string& path);

  int num_regions() const { return static_cast<int>(regions_.size()); }
  int num_refreshes() const { return refreshes_; }
  const DistributedRepartitionOptions& options() const { return options_; }
  /// Degradation notes (rejected caches, fired fault sites).
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  IncrementalRepartitioner() = default;

  /// Cached per-region state from the last cut of that region.
  struct RegionCache {
    bool valid = false;          ///< a cut (or kept-whole) is recorded
    bool repartitioned = false;  ///< last cut produced > 1 sub-partition
    int k = 1;                   ///< sub-partitions of the cached cut
    std::vector<int> local;      ///< cached local labels (region order)
    double spread_at_cut = 0.0;  ///< RegionSpread when last cut
    std::vector<double> boundary_at_cut;  ///< boundary densities at cut
    std::vector<double> warm;    ///< column-sum embedding vector (may be
                                 ///< empty: kept whole / sink not written)
  };

  uint64_t CacheKey() const;

  DistributedRepartitionOptions options_;
  int num_nodes_ = 0;
  std::vector<std::vector<int>> regions_;     ///< node ids per region
  std::vector<CsrGraph> subgraphs_;           ///< induced topology per region
  std::vector<std::vector<int>> boundaries_;  ///< boundary node ids per region
  std::vector<RegionCache> cache_;
  int refreshes_ = 0;
  std::vector<std::string> warnings_;
};

}  // namespace roadpart

#endif  // ROADPART_CORE_DISTRIBUTED_REPARTITION_H_
