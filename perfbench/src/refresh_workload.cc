// refresh-publish-serve: RunPipeline over a drifting congestion series on
// M1, with a ServeRuntime attached and a 2,000-query window served after
// every interval. One op is one interval, from before_interval to the end
// of its query window. The series runs in passes of kPassIntervals
// intervals, each over a fresh state directory; a pass's set-up (snapshot-0
// cut, engine creation, and the cold first interval) is one set-up sample.
//
// RunPipeline is opaque between its callbacks, so the traced run attributes
// an interval by replaying its public calls in the controller's order on
// the same series (labelled "replay" in the record) and reports the share
// of the measured interval the replay leaves unattributed.

#include <cstdlib>
#include <filesystem>

#include "bench.h"
#include "inputs.h"

namespace perfbench {

using namespace roadpart;

namespace {

constexpr int kPassIntervals = 40;
constexpr int kWindowQueries = 2000;
constexpr double kRangeShare = 0.05;

PipelineOptions MakeOptions(const std::string& state_dir) {
  PipelineOptions options;
  options.driver.initial.scheme = Scheme::kASG;
  options.driver.initial.k = 6;
  options.driver.initial.num_threads = 1;
  options.driver.refresh.partitioner.scheme = Scheme::kASG;
  options.driver.refresh.partitioner.k = 3;
  options.driver.refresh.partitioner.num_threads = 1;
  options.driver.refresh.trigger_ratio = 0.4;
  options.driver.refresh.boundary_delta_ratio = 0.4;
  options.driver.refresh.num_threads = 1;
  options.state_dir = state_dir;
  options.ans_margin = 1e9;      // publish gate open: every interval publishes
  options.churn_ceiling = 0.0;   // churn rule off
  options.resume = false;
  options.retry.sleep = [](double) {};
  return options;
}

/// Fresh, empty state directory.
void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

struct PassResult {
  double setup_s = 0.0;
  std::vector<double> interval_ms;  ///< intervals 1.. of the pass
  std::vector<double> ans;          ///< journal ANS per interval
};

/// One RunPipeline pass. `first_op` is the op id of interval 1 (spans).
PassResult RunPass(const RoadNetwork& network, const SnapshotSeries& series,
                   const std::vector<QueryBatch>& windows,
                   const std::string& state_dir, int first_op, int pass,
                   Tracer& tracer, RunRecord* record) {
  ResetDir(state_dir);
  ServeRuntimeOptions runtime_options;
  runtime_options.serve.num_threads = 1;
  ServeRuntime runtime(runtime_options);
  PipelineOptions options = MakeOptions(state_dir);
  options.serve = &runtime;

  PassResult out;
  std::vector<std::vector<std::string>> problems(series.num_snapshots());
  uint64_t answers_fnv = kFnv1a64Basis;
  std::string answers;
  double interval_start = 0.0;
  int op_span = -1;
  const double pass_start = NowSeconds();
  tracer.SetOp(-(pass + 1));
  int setup_span = tracer.Begin("pipeline.setup");
  options.before_interval = [&](int t) {
    interval_start = NowSeconds();
    if (t == 1) {
      out.setup_s = interval_start - pass_start;
      tracer.End(setup_span);
      setup_span = -1;
    }
    if (t >= 1) tracer.SetOp(first_op + t - 1);
    op_span = tracer.Begin("op");
  };
  options.on_interval = [&](const PipelineJournalEntry& entry) {
    const int t = entry.index;
    if (entry.outcome != PipelineIntervalOutcome::kPublished) {
      problems[t].push_back(StrPrintf("interval %d %s (%s)", t,
                                      PipelineOutcomeName(entry.outcome),
                                      entry.reason.c_str()));
    }
    out.ans.push_back(entry.ans);
    answers.clear();
    const double window_start = NowSeconds();
    {
      ScopedSpan span(tracer, "serve.window");
      CheckOk(runtime.ServeBatch(windows[t].text, &answers), "window",
              &problems[t]);
    }
    if (t >= 1) {
      record->queries += kWindowQueries;
      record->query_seconds += NowSeconds() - window_start;
    }
    tracer.End(op_span);
    if (t >= 1) {
      out.interval_ms.push_back((NowSeconds() - interval_start) * 1e3);
    }
    answers_fnv = Fnv1a64(answers, answers_fnv);
  };
  Result<PipelineRunResult> result = RunPipeline(network, series, options);
  tracer.End(setup_span);  // only open when the pass had one interval

  std::vector<std::string> pass_problems;
  if (CheckOk(result.status(), "RunPipeline", &pass_problems)) {
    if (result->stats.published != series.num_snapshots()) {
      pass_problems.push_back(StrPrintf(
          "%lld of %d intervals published", (long long)result->stats.published,
          series.num_snapshots()));
    }
    if (runtime.snapshot_manager().diagnostics().last_error_code !=
            StatusCode::kOk ||
        runtime.pipeline_stats() == nullptr ||
        runtime.pipeline_stats()->last_reason != "none") {
      pass_problems.push_back("serving runtime reports an error");
    }
    if (runtime.stats().errored != 0 || runtime.stats().shed != 0) {
      pass_problems.push_back("a query window had error or shed answers");
    }
    record->SetDet("pipeline.published", result->stats.published,
                   &pass_problems);
    record->SetDet("pipeline.quarantined", result->stats.quarantined,
                   &pass_problems);
    record->SetDet("pipeline.degraded", result->stats.degraded,
                   &pass_problems);
    record->SetDet("pipeline.retries", result->stats.retries, &pass_problems);
  }
  if (static_cast<int>(out.ans.size()) == series.num_snapshots()) {
    double sum = 0.0;
    for (double a : out.ans) sum += a;
    record->SetDet("ans", sum / out.ans.size(), &pass_problems);
  } else {
    pass_problems.push_back("pipeline stopped before the end of the series");
  }
  record->SetDet("serve.window_answers_fnv", Uint64ToHex(answers_fnv),
                 &pass_problems);
  // A pass-level problem fails every interval of the pass.
  for (auto& p : problems) {
    p.insert(p.end(), pass_problems.begin(), pass_problems.end());
    record->CountOp(p);
  }
  return out;
}

/// Per-interval values of the replay.
struct ReplayInterval {
  double attributed_ms = 0.0;  ///< sum of the replayed spans
  std::map<std::string, double> values;
};

/// Replays a pass's intervals through the public calls RunPipeline makes,
/// in its order, each under a span with the interval's op id. The ANS of
/// every replayed interval must equal the pipeline's, bit for bit.
std::vector<ReplayInterval> ReplayPass(const RoadNetwork& network,
                                       const SnapshotSeries& series,
                                       const std::vector<QueryBatch>& windows,
                                       const std::vector<double>& pipeline_ans,
                                       const std::string& state_dir,
                                       int first_op, Tracer& tracer,
                                       std::vector<std::string>* problems) {
  ResetDir(state_dir);
  const PipelineOptions options = MakeOptions(state_dir);
  const int n = network.num_segments();
  std::vector<ReplayInterval> intervals;
  tracer.SetOp(-1000);
  RoadGraph graph = RoadGraph::FromNetwork(network);
  if (!CheckOk(graph.SetFeatures(series.densities(0)), "SetFeatures",
               problems)) {
    return intervals;
  }
  PipelineJournal journal;
  journal.key = PipelineKey(graph, options);
  Result<PartitionOutcome> initial =
      Partitioner(options.driver.initial).PartitionRoadGraph(graph);
  if (!CheckOk(initial.status(), "initial partition", problems)) {
    return intervals;
  }
  journal.k_top = initial->k_final;
  journal.regions = initial->assignment;
  DistributedRepartitionOptions refresh_options = options.driver.refresh;
  refresh_options.partitioner.checkpoint.retry = options.retry;
  Result<IncrementalRepartitioner> engine = IncrementalRepartitioner::Create(
      graph, journal.regions, refresh_options);
  if (!CheckOk(engine.status(), "engine", problems)) return intervals;
  PartitionTracker tracker;
  ServeRuntimeOptions runtime_options;
  runtime_options.serve.num_threads = 1;
  ServeRuntime runtime(runtime_options);
  const std::string journal_path = state_dir + "/journal.rpj";
  const std::string cache_path = state_dir + "/cache.rpinc";
  std::string answers;

  for (int t = 0; t < series.num_snapshots(); ++t) {
    tracer.SetOp(t == 0 ? -1000 : first_op + t - 1);
    ReplayInterval interval;
    auto timed = [&](const char* name, auto&& call) {
      const double start = NowSeconds();
      {
        ScopedSpan span(tracer, name);
        call();
      }
      const double ms = (NowSeconds() - start) * 1e3;
      interval.values[name] += ms;
      interval.attributed_ms += ms;
    };
    auto file_bytes = [](const std::string& path) {
      std::error_code ec;
      return static_cast<double>(std::filesystem::file_size(path, ec));
    };

    Result<std::vector<double>> densities = Status::Internal("unset");
    timed("network.sanitize_densities", [&] {
      densities = SanitizeDensities(series.densities(t),
                                    options.driver.refresh.partitioner
                                        .density_policy,
                                    n);
    });
    if (!CheckOk(densities.status(), "sanitize", problems)) break;
    Result<DistributedRepartitionResult> refresh = Status::Internal("unset");
    timed("core.refresh", [&] { refresh = engine->Refresh(*densities); });
    if (!CheckOk(refresh.status(), "Refresh", problems)) break;
    interval.values["core.dirty_regions"] = refresh->stats.dirty;
    interval.values["core.clean_regions"] = refresh->stats.clean;
    interval.values["core.warm_started"] = refresh->stats.warm_started;
    Result<double> ans = Status::Internal("unset");
    timed("metrics.ans", [&] {
      ans = AverageNcutSilhouette(graph.adjacency(), *densities,
                                  refresh->assignment);
    });
    if (!CheckOk(ans.status(), "ANS", problems)) break;
    if (t >= static_cast<int>(pipeline_ans.size()) ||
        Bits(*ans) != Bits(pipeline_ans[t])) {
      problems->push_back(StrPrintf("replayed interval %d: ANS differs from "
                                    "the pipeline's",
                                    t));
    }
    Result<std::vector<int>> aligned = Status::Internal("unset");
    timed("core.tracker_align",
          [&] { aligned = tracker.Align(refresh->assignment); });
    if (!CheckOk(aligned.status(), "Align", problems)) break;
    journal.tracker_reference = *aligned;
    journal.tracker_next_id = tracker.num_regions_seen();

    const std::string snap_path =
        StrPrintf("%s/snap-%06d.rpsnap", state_dir.c_str(), t);
    Result<Snapshot> snapshot = Status::Internal("unset");
    timed("serve.snapshot_build",
          [&] { snapshot = Snapshot::Build(network, *aligned); });
    if (!CheckOk(snapshot.status(), "Snapshot::Build", problems)) break;
    timed("common.artifact_write.snapshot", [&] {
      CheckOk(snapshot->Save(snap_path, options.retry), "Snapshot::Save",
              problems);
    });
    PipelineJournalEntry entry;
    entry.index = t;
    entry.timestamp_seconds = series.timestamp(t);
    entry.input_fingerprint =
        IntervalInputFingerprint(series.timestamp(t), series.densities(t));
    entry.outcome = PipelineIntervalOutcome::kPublished;
    entry.refreshed = true;
    entry.ans = *ans;
    entry.churn = tracker.last_churn();
    entry.snapshot_path = snap_path;
    journal.last_published_path = snap_path;
    journal.last_published_ans = *ans;
    timed("serve.snapshot_load", [&] {
      CheckOk(runtime.LoadSnapshot(snap_path), "LoadSnapshot", problems);
    });
    journal.staleness = 0;
    journal.entries.push_back(entry);
    timed("common.artifact_write.cache", [&] {
      CheckOk(engine->SaveCache(cache_path), "SaveCache", problems);
    });
    timed("common.artifact_write.journal", [&] {
      CheckOk(SaveJournal(journal, journal_path, options.retry),
              "SaveJournal", problems);
    });
    interval.values["common.artifact_bytes"] = file_bytes(snap_path) +
                                               file_bytes(cache_path) +
                                               file_bytes(journal_path);
    answers.clear();
    timed("serve.window", [&] {
      CheckOk(runtime.ServeBatch(windows[t].text, &answers), "window",
              problems);
    });
    intervals.push_back(std::move(interval));
  }
  return intervals;
}

}  // namespace

void RunRefreshPublishServe(const RunConfig& config, Tracer& tracer,
                            RunRecord* record) {
  const RoadNetwork network = MakeM1City();
  // Smoke mode: interval 0 (set-up) plus max_ops measured intervals.
  const int intervals =
      config.max_ops > 0 ? config.max_ops + 1 : kPassIntervals;
  const SnapshotSeries series = MakeDriftSeries(network, intervals);
  std::vector<QueryBatch> windows;
  for (int t = 0; t < intervals; ++t) {
    windows.push_back(MakeQueryBatch(network.Bounds(), kWindowQueries,
                                     kRangeShare,
                                     config.seed * 100003 + t));
  }
  const std::string state_dir = config.work_dir + "/pipeline";

  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  int op = 0;
  int pass = 0;
  Tracer untraced(false);
  double start = NowSeconds();
  while (pass == 0 || (config.max_ops == 0 &&
                       NowSeconds() - start < untraced_seconds)) {
    PassResult result = RunPass(network, series, windows, state_dir, op,
                                pass++, untraced, record);
    record->setup_s.push_back(result.setup_s);
    record->op_ms.insert(record->op_ms.end(), result.interval_ms.begin(),
                         result.interval_ms.end());
    op += static_cast<int>(result.interval_ms.size());
  }
  if (!config.trace) return;

  // Traced passes, each followed by its replay.
  record->attribution = "replay";
  std::map<std::string, std::vector<double>> layer_values;
  double measured_total = 0.0;
  double unattributed_total = 0.0;
  start = NowSeconds();
  for (int traced = 0;
       traced == 0 || (config.max_ops == 0 &&
                       NowSeconds() - start < config.seconds / 2);
       ++traced) {
    PassResult result = RunPass(network, series, windows, state_dir, op,
                                pass++, tracer, record);
    record->traced_op_ms.insert(record->traced_op_ms.end(),
                                result.interval_ms.begin(),
                                result.interval_ms.end());
    std::vector<std::string> problems;
    std::vector<ReplayInterval> replay =
        ReplayPass(network, series, windows, result.ans, state_dir + "-replay",
                   op, tracer, &problems);
    if (replay.size() != static_cast<size_t>(intervals)) {
      problems.push_back("replay stopped early");
    }
    std::map<std::string, double> pass_counts;
    for (size_t t = 1; t < replay.size(); ++t) {
      for (const char* count :
           {"core.dirty_regions", "core.clean_regions", "core.warm_started"}) {
        pass_counts[count] += replay[t].values.at(count);
      }
    }
    for (const auto& [name, total] : pass_counts) {
      record->SetDet(name, total, &problems);
    }
    record->CountOp(problems);
    for (size_t t = 1; t < replay.size() && problems.empty(); ++t) {
      const ReplayInterval& r = replay[t];
      const double measured = result.interval_ms[t - 1];
      for (const auto& [name, value] : r.values) {
        layer_values[name].push_back(value);
      }
      layer_values["common.artifact_write"].push_back(
          r.values.at("common.artifact_write.snapshot") +
          r.values.at("common.artifact_write.cache") +
          r.values.at("common.artifact_write.journal"));
      layer_values["pipeline.self"].push_back(measured - r.attributed_ms);
      measured_total += measured;
      unattributed_total += measured - r.attributed_ms;
      record->traced_units += 1;
    }
    op += static_cast<int>(result.interval_ms.size());
  }
  // Means per measured interval: intervals differ (a dirty region costs a
  // re-cut, a clean one nothing), so a median would hide the refresh work.
  for (const auto& [name, metric] :
       {std::pair{"core.refresh", "core.refresh_ms"},
        {"metrics.ans", "metrics.ans_ms"},
        {"serve.snapshot_build", "serve.snapshot_build_ms"},
        {"common.artifact_write", "common.artifact_write_ms"},
        {"serve.snapshot_load", "serve.snapshot_load_ms"},
        {"serve.window", "serve.window_ms"},
        {"pipeline.self", "pipeline.self_ms"},
        {"common.artifact_bytes", "common.artifact_bytes"},
        {"core.dirty_regions", "core.dirty_regions"},
        {"core.clean_regions", "core.clean_regions"},
        {"core.warm_started", "core.warm_started"}}) {
    const std::vector<double>& v = layer_values[name];
    double sum = 0.0;
    for (double x : v) sum += x;
    record->layers[metric] = v.empty() ? 0.0 : sum / v.size();
  }
  for (const char* count : {"pipeline.published", "pipeline.quarantined",
                            "pipeline.degraded", "pipeline.retries"}) {
    record->layers[count] = std::atof(record->det[count].c_str());
  }
  record->layers["pipeline.unattributed_pct"] =
      measured_total > 0.0 ? 100.0 * unattributed_total / measured_total : 0.0;
}

}  // namespace perfbench
