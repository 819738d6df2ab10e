#ifndef ROADPART_TEMPORAL_INTERVAL_DRIVER_H_
#define ROADPART_TEMPORAL_INTERVAL_DRIVER_H_

/// The Section 6.4 interval loop over a snapshot series.
///
/// One full top-level partition at the first snapshot establishes the
/// regions, then every snapshot flows through an IncrementalRepartitioner
/// refresh — dirty-region detection, cached cuts for clean regions,
/// warm-started eigensolves for dirty ones. Region ids are kept stable
/// across intervals with a PartitionTracker and quality is measured per
/// interval (ANS), so callers can compare the incremental refresh against
/// full re-partitioning on both cost and quality.
///
/// Every interval runs through one step, RefreshInterval, shared with the
/// supervised pipeline (pipeline/controller.h). Repeated full
/// re-partitioning — the paper's "partition the network at regular
/// intervals" workflow — is a configuration of DriveIntervals, not a second
/// loop: `initial.k = 1` (one region: the whole network),
/// `refresh.partitioner` = the scheme, k and seed, `trigger_ratio = 0`
/// (re-cut every interval), `warm_start_embeddings = false` and
/// `strict = true`. FindRegimeChanges then flags churn spikes.

#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/distributed_repartition.h"
#include "core/partition_tracker.h"
#include "core/partitioner.h"
#include "network/road_graph.h"
#include "temporal/snapshot_series.h"

namespace roadpart {

/// Options for the incremental interval loop.
struct IntervalDriverOptions {
  /// Top-level partition at the first snapshot; its `k` is the region count
  /// the refreshes are bound to.
  PartitionerOptions initial;
  /// Per-interval refresh configuration (inner partitioner, dirty triggers,
  /// warm start, fan-out threads).
  DistributedRepartitionOptions refresh;
  /// Failure policy for a single interval's error — rejected densities, a
  /// failed refresh, a region re-cut that failed and was kept whole
  /// (deadline overrun, strict non-convergence), a failed align or metric.
  /// The default (false) isolates the failure: the step records the typed
  /// code, carries the last good assignment forward, and the series
  /// continues. true restores the historical abort-on-first-error behavior.
  bool strict = false;
};

/// One interval's outcome.
struct IntervalStep {
  double timestamp_seconds = 0.0;
  std::vector<int> assignment;  ///< tracked (stable) sub-partition ids
  int k_final = 0;
  double ans = 0.0;      ///< partition quality at this snapshot
  double churn = 0.0;    ///< fraction of segments changing label vs previous
  double seconds = 0.0;  ///< wall time of this interval's refresh
  RepartitionRefreshStats stats;  ///< dirty/clean/warm counters, phases
  int retries = 0;         ///< refresh attempts beyond the first
  bool refreshed = false;  ///< a Refresh succeeded (the engine advanced)
  /// One line per density repair class (DensityPolicy::kClampAndWarn).
  std::vector<std::string> warnings;
  /// kOk for a healthy interval, else the typed code of the first failure
  /// (the first failed region's code for kept-whole regions — see
  /// RegionRefreshInfo::failure). A failed step adopted nothing: the
  /// tracker did not move. RefreshInterval leaves `assignment` empty and
  /// `ans`/`churn` 0 on failure; DriveIntervals then repeats the last good
  /// interval's `assignment`, `k_final` and `ans` (the frozen regions
  /// before any good interval), with `churn` 0 — nothing moved.
  StatusCode error_code = StatusCode::kOk;
  std::string error_message;  ///< empty when error_code == kOk

  bool ok() const { return error_code == StatusCode::kOk; }
};

/// Outcome of driving a whole series.
struct IntervalDriveResult {
  std::vector<int> regions;  ///< the frozen top-level region assignment
  int k_top = 0;             ///< number of regions
  double initial_seconds = 0.0;  ///< cost of the snapshot-0 full partition
  /// One step per snapshot from the first onward. Step 0 is the initial full
  /// partition re-cut into sub-partitions (the engine's cold refresh); later
  /// steps are incremental.
  std::vector<IntervalStep> steps;
};

/// The one interval step: sanitize `densities` under the engine's
/// `partitioner.density_policy` (repairs land in `warnings`), run
/// engine.Refresh up to `attempts` times on the deterministic `retry`
/// backoff (a failed Refresh is side-effect-free), reject a refresh with
/// failed region re-cuts, measure ANS on the sanitized densities over
/// `graph`'s topology (its features are not read), and align the labels
/// with `tracker` LAST — Align mutates the tracker, so a step that failed
/// earlier left it untouched and a step that returns ok() was adopted.
/// Never fails as a whole: every error is recorded in the returned step.
IntervalStep RefreshInterval(IncrementalRepartitioner& engine,
                             PartitionTracker& tracker,
                             const RoadGraph& graph,
                             double timestamp_seconds,
                             const std::vector<double>& densities,
                             int attempts, const RetryOptions& retry);

/// Runs the incremental interval loop over `series`: full partition at
/// snapshot 0 (regions), then RefreshInterval with one attempt at every
/// snapshot. Deterministic for a fixed configuration — thread counts change
/// wall times only, never any assignment byte.
///
/// Failure containment: with `options.strict` false (the default) a failed
/// interval is RECORDED, not fatal — its IntervalStep carries the typed
/// error and the last good assignment, and later intervals proceed against
/// the engine unchanged. Only the snapshot-0 full partition and engine
/// construction remain fatal (there is no last good state to fall back
/// to). With `strict` true any error aborts the series.
Result<IntervalDriveResult> DriveIntervals(const RoadGraph& road_graph,
                                           const SnapshotSeries& series,
                                           const IntervalDriverOptions& options);

/// Regime changes over a driven series' churn.
struct RegimeChanges {
  /// Step indices whose churn exceeds `threshold` and twice the running
  /// mean churn — regime changes such as peak onset or dissolution.
  std::vector<int> indices;
  double mean_churn = 0.0;  ///< over steps 1.. (step 0 has no predecessor)
};

RegimeChanges FindRegimeChanges(const std::vector<IntervalStep>& steps,
                                double threshold);

}  // namespace roadpart

#endif  // ROADPART_TEMPORAL_INTERVAL_DRIVER_H_
