// serve-mixed: a closed loop with one client and no think time. One op is
// one ServeRuntime::ServeBatch of 20,000 text queries (95% point, 5% range)
// against an ASG k=8 snapshot of M3.
//
// The traced run times, per op, the same batch through ServeQueries (the
// loop without the runtime) and the decoded queries straight against the
// snapshot index, so parse + admission + render time is the difference.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "inputs.h"

namespace perfbench {

using namespace roadpart;

namespace {

constexpr int kServeK = 8;
constexpr int kBatchQueries = 20000;
constexpr double kRangeShare = 0.05;
// Ops cycle through this many distinct seeded batches.
constexpr int kPoolBatches = 4;
// Point and range answers per batch re-checked against brute force.
constexpr int kPointSamples = 50;
constexpr int kRangeSamples = 5;
constexpr int kSetupReps = 5;

/// Start offsets of the lines of `text`.
std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts;
  size_t pos = 0;
  while (pos < text.size()) {
    starts.push_back(pos);
    size_t nl = text.find('\n', pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
  }
  return starts;
}

/// Re-derives a seeded sample of answers of one batch by brute force.
void CheckAnswers(const RoadNetwork& network, const std::vector<int>& labels,
                  const QueryBatch& batch, const std::string& answers,
                  uint64_t seed, std::vector<std::string>* problems) {
  const std::vector<size_t> starts = LineStarts(answers);
  if (starts.size() != batch.queries.size()) {
    problems->push_back(StrPrintf("%zu answer lines for %zu queries",
                                  starts.size(), batch.queries.size()));
    return;
  }
  SplitMix rng(seed);
  int points = 0;
  int ranges = 0;
  while (points < kPointSamples || ranges < kRangeSamples) {
    const size_t i = rng.Next() % batch.queries.size();
    const Query& q = batch.queries[i];
    const char* line = answers.c_str() + starts[i];
    char* cursor = nullptr;
    if (!q.is_range && points < kPointSamples) {
      ++points;
      const long segment = std::strtol(line + 6, &cursor, 10);
      const long partition = std::strtol(cursor, &cursor, 10);
      const double distance = std::strtod(cursor, &cursor);
      const NearestHit hit = BruteForceNearestSegment(network, q.point);
      if (std::strncmp(line, "point ", 6) != 0 ||
          segment != hit.segment_id || partition != labels[segment] ||
          std::fabs(distance - std::sqrt(hit.distance_squared)) >
              1e-9 * (1.0 + distance)) {
        problems->push_back(StrPrintf("point query %zu: answer differs from "
                                      "brute force (segment %d)",
                                      i, hit.segment_id));
      }
    } else if (q.is_range && ranges < kRangeSamples) {
      ++ranges;
      std::vector<int64_t> counts(kServeK, 0);
      int64_t total = 0;
      for (int s = 0; s < network.num_segments(); ++s) {
        const Point m = SegmentMidpoint(network, s);
        if (m.x >= q.box.min.x && m.x <= q.box.max.x && m.y >= q.box.min.y &&
            m.y <= q.box.max.y) {
          ++counts[labels[s]];
          ++total;
        }
      }
      std::string expected = StrPrintf("range %lld", (long long)total);
      for (int64_t c : counts) expected += StrPrintf(" %lld", (long long)c);
      if (answers.compare(starts[i], expected.size() + 1, expected + "\n") !=
          0) {
        problems->push_back(StrPrintf("range query %zu: answer differs from "
                                      "brute force",
                                      i));
      }
    }
  }
}

/// Serves one batch through the runtime and checks its answers' fingerprint
/// and counters. Returns the wall time in ms.
double ServeOp(ServeRuntime& runtime, const QueryBatch& batch,
               std::string* answers, RunRecord* record, int slot,
               std::vector<std::string>* problems) {
  answers->clear();
  const ServeRuntimeStats before = runtime.stats();
  const double start = NowSeconds();
  Status status = runtime.ServeBatch(batch.text, answers);
  const double ms = (NowSeconds() - start) * 1e3;
  if (!CheckOk(status, "ServeBatch", problems)) return ms;
  const ServeRuntimeStats& after = runtime.stats();
  if (after.served - before.served != kBatchQueries ||
      after.errored != before.errored || after.shed != before.shed) {
    problems->push_back("batch had error or shed answers");
  }
  record->SetDet(StrPrintf("serve.answers_fnv.%d", slot),
                 Uint64ToHex(Fnv1a64(*answers)), problems);
  return ms;
}

}  // namespace

void RunServeMixed(const RunConfig& config, Tracer& tracer,
                   RunRecord* record) {
  const RoadNetwork network = MakeM3City();
  std::vector<QueryBatch> pool;
  for (int b = 0; b < kPoolBatches; ++b) {
    pool.push_back(MakeQueryBatch(network.Bounds(), kBatchQueries, kRangeShare,
                                  config.seed * kPoolBatches + b));
  }
  const std::string snapshot_path = config.work_dir + "/serve.rpsnap";
  ServeRuntimeOptions runtime_options;
  runtime_options.serve.num_threads = 1;
  PartitionerOptions cut_options;
  cut_options.scheme = Scheme::kASG;
  cut_options.k = kServeK;
  cut_options.num_threads = 1;

  // Set-up: partition, build the snapshot, load it into a fresh runtime,
  // and serve every pool batch once (warm-up). Repeated; median. The save
  // between build and load is not timed: its fsync measures the disk.
  std::unique_ptr<ServeRuntime> runtime;
  std::vector<int> labels;
  std::string answers;
  std::map<std::string, std::vector<double>> setup_layers;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tracer.SetOp(-(rep + 1));
    std::vector<std::string> problems;
    std::vector<std::string> warm_answers(kPoolBatches);
    const double start = NowSeconds();
    Result<PartitionOutcome> outcome = [&] {
      ScopedSpan span(tracer, "core.partition");
      return Partitioner(cut_options).PartitionNetwork(network);
    }();
    Result<Snapshot> snapshot = Status::Internal("not built");
    if (CheckOk(outcome.status(), "PartitionNetwork", &problems)) {
      ScopedSpan span(tracer, "serve.snapshot_build");
      snapshot = Snapshot::Build(network, outcome->assignment);
    }
    double save_s = 0.0;
    if (CheckOk(snapshot.status(), "Snapshot::Build", &problems)) {
      ScopedSpan span(tracer, "common.artifact_write.snapshot");
      const double save_start = NowSeconds();
      CheckOk(snapshot->Save(snapshot_path), "Snapshot::Save", &problems);
      save_s = NowSeconds() - save_start;
    }
    runtime = std::make_unique<ServeRuntime>(runtime_options);
    {
      ScopedSpan span(tracer, "serve.snapshot_load");
      CheckOk(runtime->LoadSnapshot(snapshot_path), "LoadSnapshot", &problems);
    }
    for (int b = 0; b < kPoolBatches && problems.empty(); ++b) {
      ScopedSpan span(tracer, "serve.batch");
      ServeOp(*runtime, pool[b], &warm_answers[b], record, b, &problems);
    }
    record->setup_s.push_back(NowSeconds() - start - save_s);

    if (problems.empty()) {
      labels = outcome->assignment;
      CheckCut(RoadGraph::FromNetwork(network).adjacency(), labels,
               outcome->k_final, kServeK, &problems);
      record->SetDet("serve.labels_fnv", Uint64ToHex(FingerprintLabels(labels)),
                     &problems);
      std::error_code ec;
      setup_layers["common.artifact_bytes"].push_back(
          static_cast<double>(std::filesystem::file_size(snapshot_path, ec)));
    }
    for (int b = 0; b < kPoolBatches && problems.empty(); ++b) {
      CheckAnswers(network, labels, pool[b], warm_answers[b],
                   config.seed * 31 + b, &problems);
    }
    record->CountOp(problems);
  }
  if (labels.empty()) return;
  {
    std::vector<std::string> problems;
    RoadGraph graph = RoadGraph::FromNetwork(network);
    Result<double> ans =
        AverageNcutSilhouette(graph.adjacency(), graph.features(), labels);
    if (CheckOk(ans.status(), "AverageNcutSilhouette", &problems)) {
      record->SetDet("ans", *ans, &problems);
    }
    if (!problems.empty()) record->CountOp(problems);
  }

  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  double start = NowSeconds();
  for (int ops = 0; KeepGoing(start, untraced_seconds, ops, config); ++ops) {
    std::vector<std::string> problems;
    const double ms = ServeOp(*runtime, pool[ops % kPoolBatches], &answers,
                              record, ops % kPoolBatches, &problems);
    record->op_ms.push_back(ms);
    record->queries += kBatchQueries;
    record->query_seconds += ms / 1e3;
    record->CountOp(problems);
  }
  if (!config.trace) return;

  // Traced ops: the batch under a span, then the loop and the index alone
  // on the same batch.
  std::map<std::string, std::vector<double>> layer_values = setup_layers;
  for (const auto& [span, metric] :
       {std::pair{"serve.snapshot_load", "serve.snapshot_load_ms"},
        {"serve.snapshot_build", "serve.snapshot_build_ms"},
        {"common.artifact_write.snapshot", "common.artifact_write_ms"}}) {
    for (const auto& [op, ms] : tracer.PerOpMs(span)) {
      layer_values[metric].push_back(ms);
    }
  }
  std::string loop_answers;
  start = NowSeconds();
  for (int ops = 0; KeepGoing(start, config.seconds / 2, ops, config);
       ++ops) {
    tracer.SetOp(ops);
    const int slot = ops % kPoolBatches;
    const QueryBatch& batch = pool[slot];
    std::vector<std::string> problems;
    double batch_ms = 0.0;
    {
      ScopedSpan op(tracer, "op");
      ScopedSpan span(tracer, "serve.batch");
      batch_ms = ServeOp(*runtime, batch, &answers, record, slot, &problems);
    }
    record->traced_op_ms.push_back(batch_ms);

    std::shared_ptr<const Snapshot> snapshot =
        runtime->snapshot_manager().Current();
    ServeBatchStats stats;
    loop_answers.clear();
    double t0 = NowSeconds();
    {
      ScopedSpan span(tracer, "replay.serve_queries");
      CheckOk(ServeQueries(*snapshot, batch.text, runtime_options.serve,
                           &loop_answers, &stats),
              "ServeQueries", &problems);
    }
    const double loop_ms = (NowSeconds() - t0) * 1e3;
    if (loop_answers != answers) {
      problems.push_back("ServeQueries answers differ from ServeBatch");
    }

    // Index alone, on the decoded queries; the checksum ties its answers
    // to the text answers.
    int64_t index_sum = 0;
    int64_t points = 0;
    t0 = NowSeconds();
    {
      ScopedSpan span(tracer, "replay.index_point");
      for (const Query& q : batch.queries) {
        if (q.is_range) continue;
        const PointAnswer a = snapshot->NearestSegment(q.point);
        index_sum += a.segment_id + a.partition_id;
        ++points;
      }
    }
    const double point_ms = (NowSeconds() - t0) * 1e3;
    t0 = NowSeconds();
    {
      ScopedSpan span(tracer, "replay.index_range");
      for (const Query& q : batch.queries) {
        if (!q.is_range) continue;
        for (int64_t c : snapshot->CountByPartition(q.box)) index_sum += c;
      }
    }
    const double range_ms = (NowSeconds() - t0) * 1e3;
    const int64_t ranges = static_cast<int64_t>(batch.queries.size()) - points;
    int64_t text_sum = 0;
    for (size_t pos = 0; pos < answers.size();) {
      const bool is_range = answers.compare(pos, 6, "range ") == 0;
      char* cursor = answers.data() + pos + 6;
      const int fields = is_range ? 1 + kServeK : 2;
      for (int f = 0; f < fields; ++f) {
        const long v = std::strtol(cursor, &cursor, 10);
        if (!is_range || f > 0) text_sum += v;  // skip a range's total
      }
      pos = answers.find('\n', pos) + 1;
    }
    if (index_sum != text_sum) {
      problems.push_back("index answers differ from the text answers");
    }

    record->SetDet("serve.answered_point", stats.answered_point, &problems);
    record->SetDet("serve.answered_range", stats.answered_range, &problems);
    record->SetDet("serve.errored", stats.errored, &problems);
    record->SetDet("serve.shed", stats.shed, &problems);
    record->CountOp(problems);
    layer_values["serve.loop_ms"].push_back(loop_ms);
    layer_values["serve.text_ms"].push_back(loop_ms - point_ms - range_ms);
    layer_values["serve.runtime_self_ms"].push_back(batch_ms - loop_ms);
    layer_values["serve.index_point_us"].push_back(point_ms * 1e3 / points);
    layer_values["serve.index_range_us"].push_back(range_ms * 1e3 / ranges);
    record->traced_units += 1;
  }
  for (const auto& [name, values] : layer_values) {
    record->layers[name] = Median(values);
  }
  for (const char* count : {"serve.answered_point", "serve.answered_range",
                            "serve.errored", "serve.shed"}) {
    record->layers[count] = std::atof(record->det[count].c_str());
  }
}

}  // namespace perfbench
