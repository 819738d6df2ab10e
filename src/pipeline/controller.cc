#include "pipeline/controller.h"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/partition_tracker.h"
#include "network/density_sanitizer.h"
#include "serve/snapshot.h"

namespace roadpart {
namespace {

std::string JournalPath(const std::string& state_dir) {
  return state_dir + "/journal.rpj";
}

std::string CachePath(const std::string& state_dir) {
  return state_dir + "/cache.rpinc";
}

std::string SnapshotPath(const std::string& state_dir, int t) {
  return StrPrintf("%s/snap-%06d.rpsnap", state_dir.c_str(), t);
}

/// One pass over the journal: outcome counts, summed retries, staleness and
/// the most recent non-published reason ("none" when every interval so far
/// published — what `!health` reports as last_error). `resumed` counts the
/// leading entries adopted from a prior process.
PipelineFeedStats FeedStats(const PipelineJournal& journal, int resumed) {
  PipelineFeedStats feed;
  feed.resumed = resumed;
  feed.intervals = static_cast<int64_t>(journal.entries.size());
  for (const PipelineJournalEntry& e : journal.entries) {
    switch (e.outcome) {
      case PipelineIntervalOutcome::kPublished:
        ++feed.published;
        break;
      case PipelineIntervalOutcome::kDegraded:
        ++feed.degraded;
        feed.last_reason = e.reason;
        break;
      case PipelineIntervalOutcome::kQuarantined:
        ++feed.quarantined;
        feed.last_reason = e.reason;
        break;
    }
    feed.retries += e.retries;
  }
  feed.staleness = journal.staleness;
  return feed;
}

/// True when the journal's history matches THIS series: no more entries
/// than snapshots, and every entry fingerprints the snapshot it claims.
bool JournalMatchesSeries(const PipelineJournal& journal,
                          const SnapshotSeries& series, int num_nodes,
                          std::vector<std::string>* warnings) {
  auto warn = [&](const std::string& why) {
    warnings->push_back("pipeline journal not adopted (" + why +
                        "); cold restart");
    return false;
  };
  if (static_cast<int>(journal.regions.size()) != num_nodes) {
    return warn("region count disagrees with the graph");
  }
  if (!journal.tracker_reference.empty() &&
      static_cast<int>(journal.tracker_reference.size()) != num_nodes) {
    return warn("tracker reference disagrees with the graph");
  }
  if (static_cast<int>(journal.entries.size()) > series.num_snapshots()) {
    return warn("more journaled intervals than the series has snapshots");
  }
  for (const PipelineJournalEntry& e : journal.entries) {
    const uint64_t expected = IntervalInputFingerprint(
        series.timestamp(e.index), series.densities(e.index));
    if (e.input_fingerprint != expected) {
      return warn(StrPrintf("interval %d input fingerprint disagrees with "
                            "the series",
                            e.index));
    }
  }
  return true;
}

}  // namespace

uint64_t PipelineKey(const RoadGraph& graph, const PipelineOptions& options) {
  const DistributedRepartitionOptions& refresh = options.driver.refresh;
  // Same exclusion policy as CanonicalOptionsString: thread counts, retry
  // schedules and observers cannot change output bytes, so they stay out.
  const std::string text = StrPrintf(
      "pipeline-v1 graph %s initial %s refresh %s trigger %s boundary %s "
      "warm %d ans_margin %s churn_ceiling %s",
      Uint64ToHex(FingerprintRoadGraph(graph)).c_str(),
      CanonicalOptionsString(options.driver.initial).c_str(),
      CanonicalOptionsString(refresh.partitioner).c_str(),
      DoubleToBitsHex(refresh.trigger_ratio).c_str(),
      DoubleToBitsHex(refresh.boundary_delta_ratio).c_str(),
      refresh.warm_start_embeddings ? 1 : 0,
      DoubleToBitsHex(options.ans_margin).c_str(),
      DoubleToBitsHex(options.churn_ceiling).c_str());
  return Fnv1a64(text);
}

uint64_t IntervalInputFingerprint(double timestamp_seconds,
                                  const std::vector<double>& densities) {
  uint64_t hash = Fnv1a64(&timestamp_seconds, sizeof(timestamp_seconds));
  return Fnv1a64(densities.data(), densities.size() * sizeof(double), hash);
}

Result<PipelineRunResult> RunPipeline(const RoadNetwork& network,
                                      const SnapshotSeries& series,
                                      const PipelineOptions& options) {
  if (options.state_dir.empty()) {
    return Status::InvalidArgument("pipeline state_dir must be set");
  }
  if (series.num_segments() != network.num_segments()) {
    return Status::InvalidArgument(
        "series segment count does not match the network");
  }
  if (series.num_snapshots() == 0) {
    return Status::InvalidArgument("empty snapshot series");
  }
  if (options.max_refresh_attempts < 1) {
    return Status::InvalidArgument("max_refresh_attempts must be >= 1");
  }

  std::error_code ec;
  std::filesystem::create_directories(options.state_dir, ec);
  if (ec) {
    return Status::IOError("cannot create pipeline state directory " +
                           options.state_dir + ": " + ec.message());
  }

  PipelineRunResult result;
  result.journal_path = JournalPath(options.state_dir);
  const std::string cache_path = CachePath(options.state_dir);
  const int num_nodes = network.num_segments();

  RoadGraph graph = RoadGraph::FromNetwork(network);
  RP_RETURN_IF_ERROR(graph.SetFeatures(series.densities(0)));
  const uint64_t key = PipelineKey(graph, options);

  // --- Resume: adopt a journal that matches this key AND this series ------
  PipelineJournal journal;
  bool resumed_journal = false;
  if (options.resume) {
    auto loaded = LoadJournal(result.journal_path, key, options.retry,
                              &result.warnings);
    if (loaded.has_value() &&
        JournalMatchesSeries(*loaded, series, num_nodes, &result.warnings)) {
      journal = std::move(*loaded);
      resumed_journal = true;
    }
  }
  const int resume_at =
      resumed_journal ? static_cast<int>(journal.entries.size()) : 0;

  if (!resumed_journal) {
    // Snapshot 0 fixes the frozen top-level regions; there is no last good
    // state to fall back to, so this one failure stays fatal.
    RP_ASSIGN_OR_RETURN(
        PartitionOutcome initial,
        Partitioner(options.driver.initial).PartitionRoadGraph(graph));
    journal = PipelineJournal();
    journal.key = key;
    journal.k_top = initial.k_final;
    journal.regions = std::move(initial.assignment);
  }

  // The engine's durable cache rides the pipeline's retry budget.
  DistributedRepartitionOptions refresh_options = options.driver.refresh;
  refresh_options.partitioner.checkpoint.retry = options.retry;
  RP_ASSIGN_OR_RETURN(
      IncrementalRepartitioner engine,
      IncrementalRepartitioner::Create(graph, journal.regions,
                                       refresh_options));

  PartitionTracker tracker;
  if (resumed_journal && !journal.tracker_reference.empty()) {
    RP_RETURN_IF_ERROR(
        tracker.Restore(journal.tracker_reference, journal.tracker_next_id));
  }

  // Drains engine warnings into the run's warning list exactly once each;
  // reset `engine_warnings_seen` whenever the engine object is replaced.
  size_t engine_warnings_seen = 0;
  auto drain_engine_warnings = [&]() {
    const std::vector<std::string>& ws = engine.warnings();
    for (; engine_warnings_seen < ws.size(); ++engine_warnings_seen) {
      result.warnings.push_back(ws[engine_warnings_seen]);
    }
  };

  // Rebuild the engine's incremental state: adopt the rpinc cache when it
  // matches the journaled refresh count; otherwise deterministically replay
  // the journaled successful refreshes (same inputs -> same bytes).
  int journaled_refreshes = 0;
  for (const PipelineJournalEntry& e : journal.entries) {
    if (e.refreshed) ++journaled_refreshes;
  }
  if (journaled_refreshes > 0) {
    bool adopted = engine.LoadCache(cache_path);
    drain_engine_warnings();
    if (adopted && engine.num_refreshes() != journaled_refreshes) {
      result.warnings.push_back(StrPrintf(
          "incremental cache records %d refreshes but the journal %d; "
          "replaying",
          engine.num_refreshes(), journaled_refreshes));
      adopted = false;
      // A differently-aged cache was adopted structurally; rebuild cold.
      RP_ASSIGN_OR_RETURN(engine, IncrementalRepartitioner::Create(
                                      graph, journal.regions,
                                      refresh_options));
      engine_warnings_seen = 0;
    }
    if (!adopted) {
      // The replay calls SanitizeDensities + Refresh directly, not
      // RefreshInterval: the tracker was already restored from the journal,
      // so RefreshInterval would run Align a second time on it, and its
      // retries are for inputs not yet known to be good. These operations
      // all succeeded before the crash on the same inputs; a failure here
      // means the environment changed under the journal, which has no safe
      // automatic answer.
      for (const PipelineJournalEntry& e : journal.entries) {
        if (!e.refreshed) continue;
        RP_ASSIGN_OR_RETURN(
            std::vector<double> densities,
            SanitizeDensities(series.densities(e.index),
                              refresh_options.partitioner.density_policy,
                              num_nodes));
        RP_RETURN_IF_ERROR(engine.Refresh(densities).status());
      }
    }
  }

  // A restarted process resumes serving the last published snapshot.
  if (options.serve != nullptr) {
    if (resumed_journal && journal.last_published_path != "-") {
      const Status reload =
          options.serve->LoadSnapshot(journal.last_published_path);
      if (!reload.ok()) {
        result.warnings.push_back("resumed snapshot not re-served (" +
                                  reload.ToString() + ")");
      }
    }
    options.serve->AttachPipelineStats(FeedStats(journal, resume_at));
  }

  // --- The interval loop ---------------------------------------------------
  for (int t = resume_at; t < series.num_snapshots(); ++t) {
    if (options.before_interval) options.before_interval(t);

    PipelineJournalEntry entry;
    entry.index = t;
    entry.timestamp_seconds = series.timestamp(t);
    entry.input_fingerprint =
        IntervalInputFingerprint(series.timestamp(t), series.densities(t));

    // Everything below runs serially; parallelism lives inside Refresh and
    // never touches entry/journal state, so journal bytes are identical for
    // every thread count.
    IntervalStep step;
    auto quarantine = [&](const std::string& reason) {
      entry.outcome = PipelineIntervalOutcome::kQuarantined;
      entry.reason = reason;
      entry.ans = journal.last_published_ans;  // served quality repeats
      entry.churn = 0.0;                       // nothing was adopted
      result.warnings.push_back(StrPrintf(
          "interval %d quarantined (%s); serving stays on last good "
          "snapshot",
          t, reason.c_str()));
    };
    auto degrade = [&](const std::string& reason) {
      entry.outcome = PipelineIntervalOutcome::kDegraded;
      entry.reason = reason;
      entry.ans = step.ans;
      entry.churn = step.churn;
      result.warnings.push_back(StrPrintf(
          "interval %d degraded (%s); refresh adopted but not published", t,
          reason.c_str()));
    };

    [&]() {
      if (RP_FAULT_FIRES(FaultSite::kPipelineQuarantinedInterval)) {
        // An upstream feed flagged this interval bad out of band.
        quarantine(FaultSiteName(FaultSite::kPipelineQuarantinedInterval));
        return;
      }

      // The shared interval step: sanitize, bounded refresh retries, the
      // failed-region check, ANS, and Align last. An ok() step is adopted
      // (the tracker advanced) even if the gate then withholds publication.
      step = RefreshInterval(engine, tracker, graph, entry.timestamp_seconds,
                             series.densities(t),
                             options.max_refresh_attempts, options.retry);
      for (const std::string& w : step.warnings) {
        result.warnings.push_back(StrPrintf("interval %d: %s", t, w.c_str()));
      }
      entry.retries = step.retries;
      entry.refreshed = step.refreshed;
      if (!step.ok()) {
        quarantine(StatusCodeKebab(step.error_code));
        return;
      }
      journal.tracker_reference = step.assignment;
      journal.tracker_next_id = tracker.num_regions_seen();

      // --- Publication gate ---
      if (RP_FAULT_FIRES(FaultSite::kPipelinePublishGateReject)) {
        degrade(FaultSiteName(FaultSite::kPipelinePublishGateReject));
        return;
      }
      const bool have_baseline = journal.last_published_path != "-";
      if (have_baseline &&
          step.ans > journal.last_published_ans + options.ans_margin) {
        degrade("ans-regression");
        return;
      }
      if (options.churn_ceiling > 0.0 &&
          step.churn > options.churn_ceiling) {
        degrade("churn-ceiling");
        return;
      }

      // --- Publish ---
      const std::string snap_path = SnapshotPath(options.state_dir, t);
      auto snapshot = Snapshot::Build(network, step.assignment);
      Status publish = snapshot.ok() ? snapshot->Save(snap_path, options.retry)
                                     : snapshot.status();
      if (!publish.ok()) {
        // The refresh was adopted but could not be made durable; the
        // previous snapshot keeps serving, exactly like a gate rejection.
        degrade(StatusCodeKebab(publish.code()));
        return;
      }
      entry.outcome = PipelineIntervalOutcome::kPublished;
      entry.reason = "none";
      entry.ans = step.ans;
      entry.churn = step.churn;
      entry.snapshot_path = snap_path;
      journal.last_published_path = snap_path;
      journal.last_published_ans = step.ans;

      if (options.serve != nullptr) {
        const Status reload = options.serve->LoadSnapshot(snap_path);
        if (!reload.ok()) {
          // The snapshot IS durably published; a refused hot swap is the
          // manager's documented containment (old snapshot keeps serving)
          // and shows up in its diagnostics, not a pipeline failure.
          result.warnings.push_back(StrPrintf(
              "interval %d published but hot swap refused (%s)", t,
              reload.ToString().c_str()));
        }
      }
    }();

    // Serial bookkeeping shared by all three outcomes.
    if (entry.outcome == PipelineIntervalOutcome::kPublished) {
      journal.staleness = 0;
    } else {
      ++journal.staleness;
    }
    entry.staleness = journal.staleness;
    journal.entries.push_back(entry);

    if (options.serve != nullptr) {
      options.serve->AttachPipelineStats(FeedStats(journal, resume_at));
    }

    // Durability order: cache before journal, so a journal that records N
    // refreshes never coexists with a cache that is older than N (the
    // resume path re-checks the count and replays on any mismatch anyway).
    const Status cache_status = engine.SaveCache(cache_path);
    if (!cache_status.ok()) {
      result.warnings.push_back("incremental cache not persisted (" +
                                cache_status.ToString() +
                                "); a resume would replay");
    }
    const Status journal_status =
        SaveJournal(journal, result.journal_path, options.retry);
    if (!journal_status.ok()) {
      // Full-rewrite journaling self-heals: the next interval's save
      // repairs the file. Crash-resume granularity degrades; serving and
      // the in-memory series do not.
      result.warnings.push_back("pipeline journal not persisted (" +
                                journal_status.ToString() + ")");
    }

    if (options.on_interval) options.on_interval(entry);
    if (options.crash_after_interval == t) {
      // Simulated hard crash for the chaos harness: no destructors, no
      // buffered-IO flushes — exactly what a power cut leaves behind.
      std::_Exit(42);
    }
  }

  drain_engine_warnings();
  result.stats = FeedStats(journal, resume_at);
  result.last_published_path = journal.last_published_path;
  result.journal = std::move(journal);
  return result;
}

}  // namespace roadpart
