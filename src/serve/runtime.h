#ifndef ROADPART_SERVE_RUNTIME_H_
#define ROADPART_SERVE_RUNTIME_H_

/// Serving runtime: the long-lived, degradation-aware layer over the read
/// path. Where serve_loop answers ONE batch against ONE snapshot, this
/// module keeps a service alive while snapshots are re-published under it:
///
///  - SnapshotManager owns the current snapshot behind a versioned,
///    atomic swap. Reload() fully loads and structurally re-validates a
///    candidate `rpsnap` *before* the swap; on any typed Corruption /
///    short read / IO error the previous snapshot keeps serving untouched
///    and the failure is recorded in diagnostics. Rollback is free because
///    a bad candidate never becomes current — there is no torn state to
///    roll back from.
///
///  - ServeRuntime composes the manager with the batched serve loop and a
///    scripted session protocol, accumulating exact service counters
///    (served / errored / shed) across batches. Its ServeOptions default
///    to the isolate malformed-query policy: a runtime exists to keep
///    serving, so one bad line answers `error`, it does not kill the
///    session.
///
/// Session protocol (RunSession): the script interleaves query lines (the
/// serve_loop grammar) with control lines, one per line, '!' first:
///
///   !reload <path>   flush pending queries, then attempt a hot swap to
///                    the snapshot at <path>.
///                    answer: `reload ok version=<v> segments=<n>`
///                        or  `reload failed <reason-code>` (old snapshot
///                            keeps serving; reason-code is the kebab-case
///                            status code, e.g. `corruption`, `io-error`)
///   !stats           flush, then answer one deterministic counters line:
///                    `stats version=<v> served=<n> errored=<n> shed=<n>
///                     reloads_ok=<n> reloads_failed=<n>`
///                    When a refresh pipeline is attached (see
///                    AttachPipelineStats) the line continues with
///                    ` pipeline_published=<n> pipeline_degraded=<n>
///                     pipeline_quarantined=<n> pipeline_staleness=<n>` —
///                    absent otherwise, so standalone sessions are
///                    byte-stable across releases.
///   !health          flush, then answer one deterministic health line:
///                    `health version=<v> staleness=<n> reloads_failed=<n>
///                     last_error=<kebab|none>` — snapshot version, age of
///                    the served snapshot in pipeline intervals (0 when no
///                    pipeline is attached), failed reload count, and the
///                    most recent typed error (pipeline reason first, then
///                    reload failure code, else `none`).
///   !quiesce         flush pending queries and confirm nothing is in
///                    flight: answer `quiesce ok`
///
/// A malformed control line answers `error <line> bad-control` under
/// isolate (strict: InvalidArgument naming the line). Every non-blank,
/// non-comment script line produces exactly one answer line, in input
/// order, and error/shed answers name script-global line numbers.
///
/// Determinism contract: control handling, parsing, admission and stats
/// all run serially; only per-batch answer formatting fans out. Session
/// output is therefore byte-identical for every thread count, provided
/// the wall-clock deadline does not fire from real time (the
/// kServeQueryTimeout / kServeShedOverflow / kSnapshotSwapCorruption
/// fault sites exist so tests drive every degraded path deterministically
/// instead).
///
/// Why queries flush in windows: a control line is a barrier. Queries
/// before a `!reload` are answered by the old snapshot, queries after it
/// by the new one — a batch can never observe half a swap, because each
/// flush captures one owning reference to the then-current snapshot and
/// serves the whole window from it.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/durable_io.h"
#include "common/status.h"
#include "serve/serve_loop.h"
#include "serve/snapshot.h"

namespace roadpart {

/// Reload history of a SnapshotManager. Counters only ever increase;
/// `version` identifies the current snapshot (0 = none yet, bumped by each
/// successful swap) so a reader can tell "still the old snapshot" from
/// "new snapshot with equal answers".
struct SnapshotManagerDiagnostics {
  int64_t version = 0;         ///< successful swaps so far; 0 = empty
  int64_t reloads_ok = 0;      ///< Reload() calls that swapped
  int64_t reloads_failed = 0;  ///< Reload() calls refused (old kept serving)
  std::string last_error;      ///< status of the most recent failed reload
  /// Typed code of the most recent failed reload (kOk before any failure);
  /// unlike `last_error` this is stable text-free state, safe for
  /// deterministic `!health` output.
  StatusCode last_error_code = StatusCode::kOk;
};

/// Owns the current serving snapshot behind a versioned atomic swap.
/// Thread-safe: Current() may be called concurrently with Reload(); a
/// caller's shared_ptr keeps its snapshot alive across any number of later
/// swaps, so in-flight batches are never torn.
class SnapshotManager {
 public:
  /// `retry` bounds transient I/O faults during candidate loads (corrupt
  /// candidates are never retried — retrying cannot fix corruption).
  explicit SnapshotManager(RetryOptions retry = {});

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Loads the `rpsnap` at `path`, re-validating it structurally end to
  /// end (Snapshot::Load), and only then atomically swaps it in, bumping
  /// the version. On ANY failure — short read, byte flip, truncation,
  /// wrong format, injected kSnapshotSwapCorruption — the previous
  /// snapshot keeps serving, diagnostics record the failure, and the typed
  /// status is returned. Also the initial-load path (failing with no
  /// previous snapshot just leaves the manager empty).
  Status Reload(const std::string& path);

  /// The current snapshot, or nullptr before the first successful Reload.
  /// The returned reference stays valid (and immutable) for as long as the
  /// caller holds it, independent of later swaps.
  std::shared_ptr<const Snapshot> Current() const;

  SnapshotManagerDiagnostics diagnostics() const;

 private:
  RetryOptions retry_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  SnapshotManagerDiagnostics diag_;
};

/// Cumulative service counters across every batch a runtime has flushed.
/// Maintained in serial code — exact and thread-count-invariant.
struct ServeRuntimeStats {
  int64_t served = 0;   ///< point + range answers emitted
  int64_t errored = 0;  ///< `error` answers emitted
  int64_t shed = 0;     ///< `shed` answers emitted
};

/// Health of the refresh pipeline feeding this runtime, pushed by the
/// supervisor (src/pipeline/) after every interval so `!stats` / `!health`
/// can surface continuous-operation state without the serving layer ever
/// depending on the pipeline. A standalone runtime has none attached. The
/// same struct is RunPipeline's final tally; `retries` and `resumed` are
/// reported there and never rendered by `!stats`.
struct PipelineFeedStats {
  int64_t intervals = 0;     ///< intervals the pipeline has completed
  int64_t published = 0;     ///< intervals whose snapshot was published
  int64_t degraded = 0;      ///< publish-gate rejections (quality regressed)
  int64_t quarantined = 0;   ///< isolated refresh failures
  int64_t staleness = 0;     ///< intervals since the last publish
  int64_t retries = 0;       ///< extra refresh attempts consumed
  int64_t resumed = 0;       ///< journal entries adopted from a prior process
  /// Kebab reason of the most recent quarantined/degraded interval
  /// ("none" while every interval published).
  std::string last_reason = "none";
};

struct ServeRuntimeOptions {
  ServeRuntimeOptions() { serve.on_malformed = MalformedQueryPolicy::kIsolate; }

  /// Per-batch serve options (threads, batch size, malformed policy,
  /// admission budgets, deadline). Isolate is the runtime default; flip to
  /// kStrict to make any malformed line abort the whole session.
  ServeOptions serve;
  /// Transient-I/O retry budget for snapshot (re)loads.
  RetryOptions reload_retry;
};

/// The long-lived serving runtime: SnapshotManager + batched serve loop +
/// session protocol + exact counters. Not thread-safe as a whole (one
/// session driver at a time); the parallelism lives inside each batch.
class ServeRuntime {
 public:
  explicit ServeRuntime(ServeRuntimeOptions options = {});

  /// Loads the initial snapshot (just Reload on the manager; exposed for
  /// symmetry and call-site readability).
  Status LoadSnapshot(const std::string& path);

  /// Serves one query-only batch (no control lines) against the current
  /// snapshot as a single admission window, appending answer lines to
  /// `*output`. FailedPrecondition if no snapshot has been loaded and the
  /// batch contains at least one query line.
  Status ServeBatch(std::string_view queries, std::string* output);

  /// Runs a scripted session (see the protocol above) and returns the full
  /// answer text. Each control line flushes the pending query window
  /// first, so answers appear in input order with script-global line
  /// numbers. Strict-policy parse failures and runtime-level preconditions
  /// (queries before any snapshot) surface as the typed error status.
  Result<std::string> RunSession(std::string_view script);

  const ServeRuntimeStats& stats() const { return stats_; }
  SnapshotManager& snapshot_manager() { return manager_; }
  const SnapshotManager& snapshot_manager() const { return manager_; }

  /// Publishes the pipeline's current health into this runtime; from then
  /// on `!stats` appends the pipeline_* fields and `!health` reports the
  /// pipeline's staleness and last reason. Call again after each interval —
  /// the runtime keeps only the latest value.
  void AttachPipelineStats(const PipelineFeedStats& stats);

  /// The attached pipeline health, or nullptr for a standalone runtime.
  const PipelineFeedStats* pipeline_stats() const {
    return pipeline_attached_ ? &pipeline_ : nullptr;
  }

 private:
  /// Flushes one window of query lines whose first line is script line
  /// `first_line`, serving it from one owning snapshot reference.
  Status FlushWindow(std::string_view window, size_t first_line,
                     std::string* output);

  /// Executes one already-flushed control line (trimmed, starts with '!').
  Status HandleControl(std::string_view line, size_t line_number,
                       std::string* output);

  ServeRuntimeOptions options_;
  SnapshotManager manager_;
  ServeRuntimeStats stats_;
  PipelineFeedStats pipeline_;
  bool pipeline_attached_ = false;
};

}  // namespace roadpart

#endif  // ROADPART_SERVE_RUNTIME_H_
