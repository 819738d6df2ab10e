#ifndef ROADPART_PIPELINE_CONTROLLER_H_
#define ROADPART_PIPELINE_CONTROLLER_H_

/// The continuous-operation pipeline: a supervised refresh -> publish ->
/// serve loop over a snapshot series with failure containment and
/// crash-resume.
///
/// Where temporal/interval_driver runs the Section 6.4 incremental loop as
/// one in-memory experiment, RunPipeline runs it as a SERVICE. Both run
/// every interval through the same step (RefreshInterval: sanitize, bounded
/// refresh retries, failed-region check, ANS, align); the pipeline adds:
///
///  - Per-interval isolation. Every way an interval can fail — poisoned
///    densities (density_sanitizer kReject), an eigensolver that refuses to
///    converge, a region re-cut blowing its deadline_seconds budget, any
///    injected fault — quarantines THAT interval with a typed kebab reason
///    code after a bounded, deterministically-backed-off retry
///    (RetryOptions), while serving continues from the last good snapshot.
///    The series never aborts past snapshot 0.
///
///  - Publication gate. A refreshed partition is published only if its
///    quality does not regress past the last published snapshot (ANS floor:
///    ans <= last_published + ans_margin; ANS is lower-better) and its
///    label churn stays under churn_ceiling. A gated interval records
///    `degraded`, the staleness counter rises, and the previous snapshot
///    keeps serving.
///
///  - Durable crash-resumable journal. After every interval the pipeline
///    atomically rewrites an `rpjournal` artifact (pipeline/journal.h)
///    recording the interval's input fingerprint, outcome, reason codes and
///    published snapshot path, and persists the engine's `rpinc` cache. A
///    pipeline killed at any instant and restarted over the same state_dir
///    resumes mid-series; the replayed intervals are bit-identical to an
///    uninterrupted run for every --threads value, because every decision
///    above is made in serial code from deterministic inputs.
///
/// Serving integration: when a ServeRuntime is attached, every published
/// snapshot is hot-swapped in (SnapshotManager::Reload — a candidate that
/// fails validation is refused and the old snapshot keeps serving) and the
/// pipeline's health is pushed via AttachPipelineStats so `!stats` /
/// `!health` surface it. A hot-swap failure is a warning, never a pipeline
/// failure: the snapshot is durably published and the reload failure is
/// visible in the manager's diagnostics.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "network/road_graph.h"
#include "network/road_network.h"
#include "pipeline/journal.h"
#include "serve/runtime.h"
#include "temporal/interval_driver.h"
#include "temporal/snapshot_series.h"

namespace roadpart {

/// Configuration of one pipeline run.
struct PipelineOptions {
  /// The interval engine's configuration: `initial` cuts the frozen
  /// top-level regions at snapshot 0, `refresh` configures every
  /// incremental re-cut (inner partitioner — including deadline_seconds and
  /// density_policy — dirty triggers, warm starts, fan-out threads). The
  /// driver's `strict` flag is ignored: the pipeline IS the non-strict
  /// policy, with its own quarantine machinery.
  IntervalDriverOptions driver;

  /// Directory owning all durable state: `journal.rpj`, `cache.rpinc` and
  /// the published `snap-<t>.rpsnap` artifacts. Created if missing. Must
  /// not contain whitespace (journal payloads are token-oriented).
  std::string state_dir;

  /// Publication gate: a refresh publishes only when its ANS does not
  /// exceed the last published snapshot's by more than this margin
  /// (additive; ANS is lower-better) ...
  double ans_margin = 0.05;
  /// ... and its label churn does not exceed this ceiling (fraction of
  /// segments re-labelled; <= 0 disables the churn rule).
  double churn_ceiling = 0.75;

  /// Total refresh attempts per interval before it quarantines (>= 1).
  /// Retries reuse the deterministic RetryBackoff schedule of `retry`.
  int max_refresh_attempts = 2;
  /// Backoff schedule for refresh retries, and the transient-I/O budget for
  /// every durable write the pipeline performs (journal, cache, snapshots).
  RetryOptions retry;

  /// Adopt a matching journal + cache in state_dir and resume mid-series.
  /// false always cold-starts (the journal is still overwritten).
  bool resume = true;

  /// Serving runtime to hot-swap published snapshots into and push health
  /// stats to. Optional; the pipeline never depends on it succeeding.
  ServeRuntime* serve = nullptr;

  /// Test hook: after the journal save of interval `t` ==
  /// crash_after_interval, the process exits immediately via _Exit(42) —
  /// no destructors, no flushes — to prove crash-resume. -1 disables.
  int crash_after_interval = -1;

  /// Test observers, called from serial code: `before_interval(t)` right
  /// before interval t starts (the place to arm per-interval faults), and
  /// `on_interval(entry)` after its journal entry is durably recorded.
  std::function<void(int)> before_interval;
  std::function<void(const PipelineJournalEntry&)> on_interval;
};

/// Outcome of RunPipeline.
struct PipelineRunResult {
  PipelineJournal journal;  ///< final journal state (also durably on disk)
  /// Counters over the whole journal (resumed + new intervals).
  PipelineFeedStats stats;
  std::string journal_path;
  std::string last_published_path;  ///< "-" when nothing ever published
  /// Degradation notes: rejected journals/caches, repaired densities,
  /// quarantine and gate events, failed hot swaps.
  std::vector<std::string> warnings;
};

/// Key binding a pipeline's durable state to one computation: graph
/// fingerprint + every output-affecting option (initial and refresh
/// partitioner configs, dirty triggers, warm-start flag, gate thresholds).
/// Journals/caches keyed differently are never adopted.
uint64_t PipelineKey(const RoadGraph& graph, const PipelineOptions& options);

/// Fingerprint of one interval's input (timestamp + density bits), recorded
/// in the journal so a resumed run can prove it is replaying the same
/// series.
uint64_t IntervalInputFingerprint(double timestamp_seconds,
                                  const std::vector<double>& densities);

/// Runs the supervised pipeline over `series` (network geometry is needed
/// to build publishable snapshots). Fatal errors are limited to what has no
/// safe fallback: invalid arguments, an unusable state_dir, the snapshot-0
/// full partition, and engine construction. Everything after that is
/// contained per interval as described above.
Result<PipelineRunResult> RunPipeline(const RoadNetwork& network,
                                      const SnapshotSeries& series,
                                      const PipelineOptions& options);

}  // namespace roadpart

#endif  // ROADPART_PIPELINE_CONTROLLER_H_
