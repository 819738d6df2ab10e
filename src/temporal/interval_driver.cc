#include "temporal/interval_driver.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "metrics/partition_metrics.h"
#include "network/density_sanitizer.h"

namespace roadpart {

IntervalStep RefreshInterval(IncrementalRepartitioner& engine,
                             PartitionTracker& tracker,
                             const RoadGraph& graph,
                             double timestamp_seconds,
                             const std::vector<double>& densities,
                             int attempts, const RetryOptions& retry) {
  IntervalStep step;
  step.timestamp_seconds = timestamp_seconds;
  auto fail = [&](const Status& status) {
    step.error_code = status.code();
    step.error_message = status.message();
    return std::move(step);
  };

  DensityRepairReport repairs;
  auto sanitized =
      SanitizeDensities(densities, engine.options().partitioner.density_policy,
                        graph.num_nodes(), &repairs);
  if (!sanitized.ok()) return fail(sanitized.status());
  step.warnings = std::move(repairs.warnings);

  // Bounded retry. Refresh validates its input before mutating any state,
  // so a failed attempt is side-effect-free and safe to repeat; the backoff
  // schedule is deterministic (seeded jitter).
  RetryBackoff backoff(retry);
  Result<DistributedRepartitionResult> refresh =
      Status::Internal("refresh never attempted");
  for (int attempt = 1;; ++attempt) {
    refresh = engine.Refresh(*sanitized);
    step.retries = attempt - 1;
    if (refresh.ok() || attempt >= attempts) break;
    const double delay = backoff.NextDelaySeconds();
    if (retry.sleep) {
      retry.sleep(delay);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }
  if (!refresh.ok()) return fail(refresh.status());
  step.refreshed = true;
  step.k_final = refresh->k_final;
  step.seconds = refresh->seconds;
  step.stats = std::move(refresh->stats);

  if (step.stats.failed > 0) {
    // Some region's re-cut failed (deadline overrun, rejected densities,
    // strict non-convergence) and was kept whole. The merged assignment is
    // valid, but adopting a partition known to be partially degraded would
    // hide the failure.
    return fail(Status::WithCode(
        step.stats.first_failure,
        StrPrintf("%d of %d region re-cuts failed (first: %s)",
                  step.stats.failed, step.stats.regions,
                  StatusCodeKebab(step.stats.first_failure))));
  }

  auto ans = AverageNcutSilhouette(graph.adjacency(), *sanitized,
                                   refresh->assignment);
  if (!ans.ok()) return fail(ans.status());
  // Align LAST among the failable operations: it mutates the tracker
  // reference, so once it succeeds this interval's labels are adopted.
  auto aligned = tracker.Align(refresh->assignment);
  if (!aligned.ok()) return fail(aligned.status());
  step.assignment = std::move(aligned).value();
  step.churn = tracker.last_churn();
  step.ans = *ans;
  return step;
}

Result<IntervalDriveResult> DriveIntervals(
    const RoadGraph& road_graph, const SnapshotSeries& series,
    const IntervalDriverOptions& options) {
  if (series.num_segments() != road_graph.num_nodes()) {
    return Status::InvalidArgument(
        "series segment count does not match the road graph");
  }
  if (series.num_snapshots() == 0) {
    return Status::InvalidArgument("empty snapshot series");
  }

  IntervalDriveResult result;

  // Snapshot 0: one full top-level partition fixes the regions the
  // incremental engine is bound to for the rest of the series.
  RoadGraph graph = road_graph;  // mutable copy for per-snapshot features
  RP_RETURN_IF_ERROR(graph.SetFeatures(series.densities(0)));
  Timer timer;
  RP_ASSIGN_OR_RETURN(PartitionOutcome initial,
                      Partitioner(options.initial).PartitionRoadGraph(graph));
  result.initial_seconds = timer.Seconds();
  result.regions = std::move(initial.assignment);
  result.k_top = initial.k_final;

  RP_ASSIGN_OR_RETURN(IncrementalRepartitioner engine,
                      IncrementalRepartitioner::Create(graph, result.regions,
                                                       options.refresh));

  PartitionTracker tracker;
  // The fallback a failed interval repeats: before any good interval, the
  // frozen top-level regions (the only adopted assignment so far). The
  // engine's incremental cache evolves on every successful Refresh, which
  // keeps later intervals identical to a run without the failure.
  std::vector<int> last_good = result.regions;
  int last_good_k = result.k_top;
  double last_good_ans = 0.0;

  result.steps.reserve(series.num_snapshots());
  for (int t = 0; t < series.num_snapshots(); ++t) {
    IntervalStep step =
        RefreshInterval(engine, tracker, graph, series.timestamp(t),
                        series.densities(t), /*attempts=*/1, RetryOptions());
    if (step.ok()) {
      last_good = step.assignment;
      last_good_k = step.k_final;
      last_good_ans = step.ans;
    } else {
      if (options.strict) {
        return Status::WithCode(step.error_code, step.error_message);
      }
      step.assignment = last_good;
      step.k_final = last_good_k;
      step.ans = last_good_ans;
    }
    result.steps.push_back(std::move(step));
  }
  return result;
}

RegimeChanges FindRegimeChanges(const std::vector<IntervalStep>& steps,
                                double threshold) {
  RegimeChanges changes;
  double churn_sum = 0.0;
  for (size_t t = 1; t < steps.size(); ++t) {
    const double churn = steps[t].churn;
    churn_sum += churn;
    const double running_mean = churn_sum / static_cast<double>(t);
    if (churn > threshold && churn > 2.0 * running_mean) {
      changes.indices.push_back(static_cast<int>(t));
    }
  }
  if (steps.size() > 1) {
    changes.mean_churn = churn_sum / static_cast<double>(steps.size() - 1);
  }
  return changes;
}

}  // namespace roadpart
