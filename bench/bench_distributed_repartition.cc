// Section 6.4's real-time proposal, quantified: "after having its relatively
// small partitions, they can be repeatedly subjected to partitioning
// distributively with the changing congestion measures".
//
// Two experiments:
//
//   1. One-shot refresh (M1/M2): a full re-partition at the refined
//      granularity vs one distributed per-region refresh, with the refresh's
//      phase breakdown (trigger check / sub-partition / merge).
//
//   2. Interval series (M1): a drifting congestion field sampled at several
//      snapshots, re-partitioned (a) from scratch at every snapshot and
//      (b) through the IncrementalRepartitioner — dirty-region detection,
//      cached cuts, warm-started eigensolves. Emits one JSON object per line;
//      pass --out=FILE to also write them atomically
//      (results/BENCH_repartition_incremental.json records a captured run).
//
// Threads: --threads=N (default: DefaultParallelism, i.e. RP_THREADS) sets
// the per-region fan-out width. The bench re-runs the series at 1/2/8 threads
// and fingerprints the assignments — thread counts change wall time only,
// never a byte.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/durable_io.h"
#include "common/timer.h"

using namespace roadpart;
using namespace roadpart::bench;

namespace {

uint64_t AssignmentFingerprint(uint64_t h, const std::vector<int>& a) {
  return Fnv1a64(a.data(), a.size() * sizeof(int), h);
}

void PrintPhases(const RepartitionRefreshStats& s) {
  std::printf("       phases: trigger %.4fs | sub-partition %.4fs | "
              "merge %.4fs   (%d dirty / %d clean, %d warm-started)\n",
              s.trigger_seconds, s.subpartition_seconds, s.merge_seconds,
              s.dirty, s.clean, s.warm_started);
}

// Experiment 1: one-shot refresh on a single phase change, M1 and M2.
void Compare(DatasetPreset preset, int k_top, int k_inner, int threads) {
  DatasetSpec spec = GetDatasetSpec(preset);
  RoadNetwork net = MakeCongestedDataset(preset, 17);
  RoadGraph rg = RoadGraph::FromNetwork(net);

  // Initial whole-network partitioning (done once, offline).
  PartitionerOptions top;
  top.scheme = Scheme::kASG;
  top.k = k_top;
  top.seed = 7;
  Timer timer;
  auto initial = Partitioner(top).PartitionRoadGraph(rg).value();
  double initial_seconds = timer.Seconds();

  // Congestion changes: a later phase of the same field.
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 5;
  field_opt.hotspot_radius_fraction = 0.15;
  field_opt.voronoi_tiling = true;
  field_opt.seed = 17 + 1000;
  CongestionField field(net, field_opt);
  RP_CHECK(rg.SetFeatures(field.DensitiesAt(0.6)).ok());

  // (a) full re-partition at the refined granularity.
  PartitionerOptions full;
  full.scheme = Scheme::kASG;
  full.k = k_top * k_inner;
  full.seed = 9;
  timer.Restart();
  auto global = Partitioner(full).PartitionRoadGraph(rg);
  double global_seconds = timer.Seconds();

  // (b) distributed refresh inside the existing regions, at the requested
  // fan-out width. trigger_ratio stays 0 here — every region is re-cut, the
  // historical comparison — so the phase breakdown shows where a naive
  // refresh spends its time (the series experiment below shows the fix).
  DistributedRepartitionOptions dist;
  dist.partitioner.scheme = Scheme::kASG;
  dist.partitioner.k = k_inner;
  dist.partitioner.seed = 9;
  // Regions are small; a shallow kappa sweep suffices per region.
  dist.partitioner.miner.max_kappa = 10;
  dist.partitioner.miner.sample_size = 2000;
  dist.num_threads = threads;
  auto engine = IncrementalRepartitioner::Create(rg, initial.assignment, dist);
  Result<DistributedRepartitionResult> local =
      engine.ok() ? engine->Refresh(rg.features()) : engine.status();

  std::printf("%-4s initial k=%d (%.2fs), refresh fan-out at %d thread%s\n",
              spec.name.c_str(), initial.k_final, initial_seconds, threads,
              threads == 1 ? "" : "s");
  if (global.ok()) {
    auto eval = EvaluatePartitions(rg.adjacency(), rg.features(),
                                   global->assignment).value();
    std::printf("     full re-partition    k=%3d  ans=%.4f  %.3fs\n",
                global->k_final, eval.ans, global_seconds);
  }
  if (local.ok()) {
    auto eval = EvaluatePartitions(rg.adjacency(), rg.features(),
                                   local->assignment).value();
    std::printf("     distributed refresh  k=%3d  ans=%.4f  %.3fs "
                "(%d regions re-cut)\n",
                local->k_final, eval.ans, local->seconds,
                local->regions_repartitioned);
    PrintPhases(local->stats);
  }
  std::printf("\n");
}

// Experiment 2: the interval series. Returns the series fingerprint so main
// can cross-check thread counts.
struct SeriesRun {
  uint64_t fingerprint = 0;
  std::string json;  // per-interval + summary lines (empty for reruns)
};

SeriesRun RunSeries(int threads, bool emit_json) {
  constexpr int kTop = 4, kInner = 3, kSnapshots = 8;

  RoadNetwork net = MakeCongestedDataset(DatasetPreset::kM1, 17);
  RoadGraph rg = RoadGraph::FromNetwork(net);

  // The drifting field: hotspots migrate as time01 advances. The series
  // samples a rush-hour window at 5-minute intervals — per-interval drift is
  // modest, so most regions stay within their trigger band most intervals
  // and only the regions a hotspot is crossing go dirty. That dirty/clean
  // split is exactly what the incremental engine exploits.
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 5;
  field_opt.hotspot_radius_fraction = 0.15;
  field_opt.voronoi_tiling = true;
  field_opt.seed = 17 + 1000;
  CongestionField field(net, field_opt);

  SnapshotSeries series(rg.num_nodes());
  for (int t = 0; t < kSnapshots; ++t) {
    double time01 = 0.30 + 0.35 * t / (kSnapshots - 1);
    RP_CHECK(series.Append(300.0 * t, field.DensitiesAt(time01)).ok());
  }

  // (a) full re-partition from scratch at every snapshot.
  std::vector<double> full_seconds(kSnapshots), full_ans(kSnapshots);
  for (int t = 0; t < kSnapshots; ++t) {
    RP_CHECK(rg.SetFeatures(series.densities(t)).ok());
    PartitionerOptions full;
    full.scheme = Scheme::kASG;
    full.k = kTop * kInner;
    full.seed = 9;
    Timer timer;
    auto outcome = Partitioner(full).PartitionRoadGraph(rg).value();
    full_seconds[t] = timer.Seconds();
    full_ans[t] = EvaluatePartitions(rg.adjacency(), rg.features(),
                                     outcome.assignment).value().ans;
  }

  // (b) the incremental engine over the same series.
  IntervalDriverOptions opt;
  opt.initial.scheme = Scheme::kASG;
  opt.initial.k = kTop;
  opt.initial.seed = 7;
  opt.refresh.partitioner.scheme = Scheme::kASG;
  opt.refresh.partitioner.k = kInner;
  opt.refresh.partitioner.seed = 9;
  // A broader MCG shortlist keeps a >= k-supernode clustering available for
  // mildly-perturbed regions, so a re-cut never falls into the strictest-
  // stability re-mine (the 0.3-0.8s degenerate dense solve behind the old
  // inversion). Dirty-region triggers do the rest: only regions whose
  // spread moved by 0.4 global scales (or whose boundary shifted as much)
  // are re-cut at all.
  opt.refresh.partitioner.miner.mcg_threshold_fraction = 0.5;
  opt.refresh.trigger_ratio = 0.40;
  opt.refresh.boundary_delta_ratio = 0.40;
  opt.refresh.warm_start_embeddings = true;
  opt.refresh.num_threads = threads;
  RP_CHECK(rg.SetFeatures(series.densities(0)).ok());
  IntervalDriveResult drive = DriveIntervals(rg, series, opt).value();

  SeriesRun run;
  run.fingerprint = kFnv1a64Basis;
  for (const IntervalStep& step : drive.steps) {
    run.fingerprint = AssignmentFingerprint(run.fingerprint, step.assignment);
  }
  if (!emit_json) return run;

  std::printf("=== M1 interval series: %d snapshots, drifting field, "
              "%d thread%s ===\n", kSnapshots, threads,
              threads == 1 ? "" : "s");
  std::printf("  initial top-level partition: k=%d, %.3fs (paid once)\n\n",
              drive.k_top, drive.initial_seconds);
  std::printf("  t   full(s)  incr(s)  dirty/clean  warm  full-ans incr-ans"
              "  churn%%\n");

  double full_after_first = 0.0, incr_after_first = 0.0;
  double full_ans_sum = 0.0, incr_ans_sum = 0.0;
  bool strictly_cheaper = true;
  for (int t = 0; t < kSnapshots; ++t) {
    const IntervalStep& step = drive.steps[t];
    std::printf("  %-3d %7.3f  %7.3f  %5d/%-5d  %4d  %8.4f %8.4f  %5.1f\n",
                t, full_seconds[t], step.seconds, step.stats.dirty,
                step.stats.clean, step.stats.warm_started, full_ans[t],
                step.ans, 100.0 * step.churn);
    run.json += StrPrintf(
        "{\"interval\": %d, \"full_seconds\": %.6f, \"full_ans\": %.6f, "
        "\"incremental_seconds\": %.6f, \"incremental_ans\": %.6f, "
        "\"k_final\": %d, \"dirty\": %d, \"clean\": %d, "
        "\"warm_started\": %d, \"warm_rejected\": %d, \"churn\": %.6f, "
        "\"trigger_seconds\": %.6f, \"subpartition_seconds\": %.6f, "
        "\"merge_seconds\": %.6f}\n",
        t, full_seconds[t], full_ans[t], step.seconds, step.ans, step.k_final,
        step.stats.dirty, step.stats.clean, step.stats.warm_started,
        step.stats.warm_rejected, step.churn, step.stats.trigger_seconds,
        step.stats.subpartition_seconds, step.stats.merge_seconds);
    full_ans_sum += full_ans[t];
    incr_ans_sum += step.ans;
    if (t > 0) {
      full_after_first += full_seconds[t];
      incr_after_first += step.seconds;
      if (step.seconds >= full_seconds[t]) strictly_cheaper = false;
    }
  }
  const double mean_full_ans = full_ans_sum / kSnapshots;
  const double mean_incr_ans = incr_ans_sum / kSnapshots;
  std::printf("\n  after the first interval: full %.3fs vs incremental "
              "%.3fs (%.1fx), incremental %s cheaper on every interval; "
              "mean ans %.4f (full) vs %.4f (incremental)\n\n",
              full_after_first, incr_after_first,
              incr_after_first > 0.0 ? full_after_first / incr_after_first
                                     : 0.0,
              strictly_cheaper ? "strictly" : "NOT strictly",
              mean_full_ans, mean_incr_ans);
  run.json += StrPrintf(
      "{\"phase\": \"summary\", \"full_seconds_after_first\": %.6f, "
      "\"incremental_seconds_after_first\": %.6f, \"speedup\": %.3f, "
      "\"strictly_cheaper_after_first\": %s, \"mean_full_ans\": %.4f, "
      "\"mean_incremental_ans\": %.4f, \"mean_ans_ratio\": %.4f}\n",
      full_after_first, incr_after_first,
      incr_after_first > 0.0 ? full_after_first / incr_after_first : 0.0,
      strictly_cheaper ? "true" : "false", mean_full_ans, mean_incr_ans,
      mean_full_ans > 0.0 ? mean_incr_ans / mean_full_ans : 0.0);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = BenchThreads();
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      if (threads < 1) threads = 1;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  std::printf("=== Section 6.4: distributed re-partitioning for repeated "
              "intervals ===\n\n");
  Compare(DatasetPreset::kM1, 4, 3, threads);
  Compare(DatasetPreset::kM2, 5, 3, threads);

  SeriesRun main_run = RunSeries(threads, /*emit_json=*/true);

  // Thread-count invariance: the refreshed assignments must be bit-identical
  // whatever the fan-out width.
  std::vector<int> widths = {1, 2, 8};
  bool invariant = true;
  for (int w : widths) {
    if (w == threads) continue;
    SeriesRun rerun = RunSeries(w, /*emit_json=*/false);
    if (rerun.fingerprint != main_run.fingerprint) invariant = false;
  }
  std::printf("  assignment fingerprint %016llx at threads {1,2,8}: %s\n",
              static_cast<unsigned long long>(main_run.fingerprint),
              invariant ? "identical" : "MISMATCH");

  std::string report = StrPrintf(
      "{\"bench\": \"repartition_incremental\", \"dataset\": \"M1\", "
      "\"snapshots\": 8, \"k_top\": 4, \"k_inner\": 3, "
      "\"trigger_ratio\": 0.40, \"boundary_delta_ratio\": 0.40, "
      "\"warm_start\": true, \"threads\": %d, "
      "\"fingerprint\": \"%016llx\", \"thread_invariant\": %s}\n",
      threads, static_cast<unsigned long long>(main_run.fingerprint),
      invariant ? "true" : "false");
  report += main_run.json;
  if (!out_path.empty()) {
    RP_CHECK_OK(AtomicWriteFile(out_path, report));
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return invariant ? 0 : 1;
}
