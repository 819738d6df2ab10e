// roadpart_cli — command-line front end for the library.
//
//   roadpart_cli generate  --preset=D1|M1|M2|M3 --seed=N --hotspots=H out.net
//   roadpart_cli partition --scheme=ASG --k=6 [--stability=E] in.net out.csv
//   roadpart_cli evaluate  in.net partition.csv
//   roadpart_cli sweep     --scheme=ASG --kmin=2 --kmax=20 in.net
//
// Networks use the text format of network_io.h; partitions are
// "segment_id,partition_id" CSV.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "common/flags.h"
#include "common/string_util.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  roadpart_cli generate  --preset=D1|M1|M2|M3 [--seed=N]"
      " [--hotspots=H] <out.net>\n"
      "  roadpart_cli partition --scheme=AG|ASG|NG|NSG|JIG [--k=K]"
      " [--seed=N] [--stability=E] [--threads=T]\n"
      "                 [--deadline-seconds=S] "
      "[--on-nonconvergence=fail|retry|dense|best-effort]\n"
      "                 [--density-policy=reject|clamp]"
      " [--checkpoint-dir=DIR] [--resume]\n"
      "                 [--geojson=NAME.geojson] [--snapshot-out=NAME.rpsnap]"
      " <in.net> <out.csv>\n"
      "  roadpart_cli evaluate  <in.net> <partition.csv>\n"
      "  roadpart_cli simulate  [--vehicles=N] [--horizon=S] [--interval=S]"
      " [--snapshot=T] [--seed=N] <in.net> <out.densities>\n"
      "  roadpart_cli mine      [--stability=E] [--seed=N] <in.net>"
      " <out.supergraph>\n"
      "  roadpart_cli analyze   [--scheme=S] [--k=K] [--seed=N] <in.net>"
      " <series.csv>\n"
      "  roadpart_cli refresh   [--scheme=S] [--k=K] [--inner-scheme=S]"
      " [--inner-k=K] [--seed=N]\n"
      "                 [--trigger-ratio=R] [--boundary-delta-ratio=R]"
      " [--no-warm-start] [--deadline-seconds=S]\n"
      "                 [--strict] <in.net> <series.csv>\n"
      "  roadpart_cli sweep     [--scheme=S] [--kmin=A] [--kmax=B]"
      " [--seed=N] <in.net>\n"
      "\n"
      "  refresh partitions snapshot 0 into regions, then re-cuts only\n"
      "  dirty regions at each later snapshot (incremental Section 6.4),\n"
      "  reporting dirty/clean counts, warm starts and phase timings.\n"
      "  A failed interval is isolated: its status column carries the typed\n"
      "  code and the last good assignment rides forward (--strict restores\n"
      "  abort-on-first-error); a region over --deadline-seconds is kept\n"
      "  whole and counted in the fail column.\n"
      "  --threads=T sets worker threads for every command (0 = RP_THREADS\n"
      "  env or hardware default); results are identical for any value.\n"
      "  --output-dir=DIR places relative output files under DIR (created\n"
      "  on demand). --checkpoint-dir=DIR persists each completed pipeline\n"
      "  stage; --resume consumes valid stages and is bit-identical to an\n"
      "  uninterrupted run. --io-retry-attempts=N and\n"
      "  --io-retry-base-delay=S retry transient I/O failures with\n"
      "  deterministic backoff. --snapshot-out=PATH additionally exports the\n"
      "  partition as an immutable rp_serve snapshot (rpsnap format).\n");
  return 2;
}

Result<Scheme> ParseScheme(const std::string& name) {
  if (name == "AG") return Scheme::kAG;
  if (name == "ASG") return Scheme::kASG;
  if (name == "NG") return Scheme::kNG;
  if (name == "NSG") return Scheme::kNSG;
  if (name == "JIG" || name == "JiGeroliminis") {
    return Scheme::kJiGeroliminis;
  }
  return Status::InvalidArgument("unknown scheme '" + name + "'");
}

Result<NonConvergencePolicy> ParseNonConvergencePolicy(
    const std::string& name) {
  if (name == "fail") return NonConvergencePolicy::kFail;
  if (name == "retry") return NonConvergencePolicy::kRetry;
  if (name == "dense") return NonConvergencePolicy::kFallbackDense;
  if (name == "best-effort") return NonConvergencePolicy::kBestEffort;
  return Status::InvalidArgument("unknown non-convergence policy '" + name +
                                 "' (want fail|retry|dense|best-effort)");
}

Result<DensityPolicy> ParseDensityPolicy(const std::string& name) {
  if (name == "reject") return DensityPolicy::kReject;
  if (name == "clamp") return DensityPolicy::kClampAndWarn;
  return Status::InvalidArgument("unknown density policy '" + name +
                                 "' (want reject|clamp)");
}

/// Places a relative output path under --output-dir (created on demand).
/// Absolute paths and runs without the flag pass through unchanged.
Result<std::string> ResolveOutput(const FlagParser& flags,
                                  const std::string& path) {
  std::string dir = flags.GetString("output-dir", "");
  if (dir.empty() || (!path.empty() && path[0] == '/')) return path;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create --output-dir '" + dir +
                           "': " + ec.message());
  }
  return dir + "/" + path;
}

/// Transient-I/O retry policy from --io-retry-attempts / --io-retry-base-delay
/// (deterministic backoff; see common/durable_io.h).
Result<RetryOptions> RetryFromFlags(const FlagParser& flags) {
  RetryOptions retry;
  auto attempts = flags.GetIntInRange("io-retry-attempts", retry.max_attempts,
                                      1, INT_MAX);
  if (!attempts.ok()) return attempts.status();
  auto base = flags.GetDouble("io-retry-base-delay", retry.base_delay_seconds);
  if (!base.ok()) return base.status();
  if (*base < 0.0) {
    return Status::InvalidArgument("--io-retry-base-delay must be >= 0");
  }
  retry.max_attempts = static_cast<int>(*attempts);
  retry.base_delay_seconds = *base;
  return retry;
}

Result<DatasetPreset> ParsePreset(const std::string& name) {
  if (name == "D1") return DatasetPreset::kD1;
  if (name == "M1") return DatasetPreset::kM1;
  if (name == "M2") return DatasetPreset::kM2;
  if (name == "M3") return DatasetPreset::kM3;
  return Status::InvalidArgument("unknown preset '" + name + "'");
}

int CmdGenerate(const FlagParser& flags) {
  if (flags.positional().size() != 1) return Usage();
  auto preset = ParsePreset(flags.GetString("preset", "D1"));
  if (!preset.ok()) return Fail(preset.status());
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  auto hotspots = flags.GetIntInRange("hotspots", 3, 0, INT_MAX);
  if (!hotspots.ok()) return Fail(hotspots.status());

  auto out = ResolveOutput(flags, flags.positional()[0]);
  if (!out.ok()) return Fail(out.status());

  auto net = GenerateDataset(*preset, static_cast<uint64_t>(*seed));
  if (!net.ok()) return Fail(net.status());
  CongestionFieldOptions field;
  field.num_hotspots = static_cast<int>(*hotspots);
  field.seed = static_cast<uint64_t>(*seed) + 1000;
  CongestionField congestion(*net, field);
  Status st = net->SetDensities(congestion.Densities());
  if (!st.ok()) return Fail(st);
  st = SaveRoadNetwork(*net, *out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: %d intersections, %d segments\n", out->c_str(),
              net->num_intersections(), net->num_segments());
  return 0;
}

int CmdPartition(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto scheme = ParseScheme(flags.GetString("scheme", "ASG"));
  if (!scheme.ok()) return Fail(scheme.status());
  auto k = flags.GetIntInRange("k", 6, 1, INT_MAX);
  if (!k.ok()) return Fail(k.status());
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  auto stability = flags.GetDouble("stability", 0.0);
  if (!stability.ok()) return Fail(stability.status());
  auto deadline = flags.GetDouble("deadline-seconds", 0.0);
  if (!deadline.ok()) return Fail(deadline.status());
  auto nonconv =
      ParseNonConvergencePolicy(flags.GetString("on-nonconvergence",
                                                "best-effort"));
  if (!nonconv.ok()) return Fail(nonconv.status());
  auto density = ParseDensityPolicy(flags.GetString("density-policy",
                                                    "reject"));
  if (!density.ok()) return Fail(density.status());
  auto retry = RetryFromFlags(flags);
  if (!retry.ok()) return Fail(retry.status());
  std::string crash_stage = flags.GetString("crash-after-stage", "");
  if (!crash_stage.empty()) {
    auto parsed = ParseCheckpointStage(crash_stage);
    if (!parsed.ok()) return Fail(parsed.status());
  }
  auto csv_path = ResolveOutput(flags, flags.positional()[1]);
  if (!csv_path.ok()) return Fail(csv_path.status());

  auto net = LoadRoadNetwork(flags.positional()[0], *retry);
  if (!net.ok()) return Fail(net.status());

  PartitionerOptions options;
  options.scheme = *scheme;
  options.k = static_cast<int>(*k);
  options.seed = static_cast<uint64_t>(*seed);
  options.miner.stability.threshold = *stability;
  options.deadline_seconds = *deadline;
  options.spectral.on_nonconvergence = *nonconv;
  options.density_policy = *density;
  options.num_threads = DefaultParallelism();  // --threads / RP_THREADS
  options.checkpoint.dir = flags.GetString("checkpoint-dir", "");
  options.checkpoint.resume = flags.GetBool("resume", false);
  options.checkpoint.retry = *retry;
  options.checkpoint.crash_after_stage = crash_stage;
  std::string snapshot_name = flags.GetString("snapshot-out", "");
  if (!snapshot_name.empty()) {
    auto snapshot_path = ResolveOutput(flags, snapshot_name);
    if (!snapshot_path.ok()) return Fail(snapshot_path.status());
    options.snapshot_path = *snapshot_path;
  }
  auto outcome = Partitioner(options).PartitionNetwork(*net);
  // A failed run (deadline, rejected input, non-convergence under a strict
  // policy) writes nothing: the output CSV either holds a complete partition
  // or does not exist. With --checkpoint-dir, completed stages survive for
  // a later --resume.
  if (!outcome.ok()) return Fail(outcome.status());

  Status st = SavePartitionCsv(outcome->assignment, *csv_path, *retry);
  if (!st.ok()) return Fail(st);
  if (!options.snapshot_path.empty()) {
    std::printf("wrote serving snapshot %s\n", options.snapshot_path.c_str());
  }
  std::string geojson_name = flags.GetString("geojson", "");
  if (!geojson_name.empty()) {
    auto geojson_path = ResolveOutput(flags, geojson_name);
    if (!geojson_path.ok()) return Fail(geojson_path.status());
    GeoJsonOptions geo;
    geo.partition = outcome->assignment;
    st = ExportGeoJson(*net, geo, *geojson_path, *retry);
    if (!st.ok()) return Fail(st);
    std::printf("wrote %s\n", geojson_path->c_str());
  }
  std::printf("scheme=%s k=%d k'=%d supernodes=%d  "
              "timings: %.3fs / %.3fs / %.3fs\n",
              SchemeName(*scheme), outcome->k_final, outcome->k_prime,
              outcome->num_supernodes, outcome->module1_seconds,
              outcome->module2_seconds, outcome->module3_seconds);
  std::printf("%s", outcome->diagnostics.ToString().c_str());
  return 0;
}

int CmdEvaluate(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());
  auto assignment = LoadPartitionCsv(flags.positional()[1],
                                     net->num_segments());
  if (!assignment.ok()) return Fail(assignment.status());

  RoadGraph rg = RoadGraph::FromNetwork(*net);
  Status validity = CheckPartitionValidity(rg.adjacency(), *assignment);
  auto eval = EvaluatePartitions(rg.adjacency(), rg.features(), *assignment);
  if (!eval.ok()) return Fail(eval.status());
  auto q = Modularity(GaussianWeightedGraph(rg.adjacency(), rg.features()),
                      *assignment);
  std::printf("k=%d  inter=%.4f  intra=%.4f  GDBI=%.4f  ANS=%.4f  Q=%.4f\n",
              eval->num_partitions, eval->inter, eval->intra, eval->gdbi,
              eval->ans, q.ok() ? q.value() : 0.0);
  std::printf("validity (C.1 disjoint cover, C.2 connectivity): %s\n",
              validity.ok() ? "OK" : validity.ToString().c_str());
  auto rows = SummarizePartitions(rg.adjacency(), rg.features(), *assignment);
  if (rows.ok()) {
    std::printf("%s", FormatPartitionTable(*rows).c_str());
  }
  return 0;
}

int CmdMine(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto stability = flags.GetDouble("stability", 0.0);
  if (!stability.ok()) return Usage();
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());

  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());
  RoadGraph rg = RoadGraph::FromNetwork(*net);

  SupergraphMinerOptions options;
  options.stability.threshold = *stability;
  options.seed = static_cast<uint64_t>(*seed);
  SupergraphMiningReport report;
  auto sg = MineSupergraph(rg, options, &report);
  if (!sg.ok()) return Fail(sg.status());
  auto out = ResolveOutput(flags, flags.positional()[1]);
  if (!out.ok()) return Fail(out.status());
  Status st = SaveSupergraph(*sg, *out);
  if (!st.ok()) return Fail(st);
  std::printf("mined %s: kappa*=%d, %d supernodes (%d before stability), "
              "%lld superlinks; matrix order %d -> %d\n",
              out->c_str(), report.chosen_kappa,
              sg->num_supernodes(), report.supernodes_before_stability,
              static_cast<long long>(sg->links().num_edges()),
              rg.num_nodes(), sg->num_supernodes());
  return 0;
}

int CmdSimulate(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto vehicles = flags.GetIntInRange("vehicles", 5000, 0, INT_MAX);
  if (!vehicles.ok()) return Fail(vehicles.status());
  // -1 (or any index past the last snapshot) selects the peak snapshot.
  auto snapshot = flags.GetIntInRange("snapshot", -1, -1, INT_MAX);
  if (!snapshot.ok()) return Fail(snapshot.status());
  auto horizon = flags.GetDouble("horizon", 3600.0);
  auto interval = flags.GetDouble("interval", 120.0);
  if (!horizon.ok() || !interval.ok()) return Usage();
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());

  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());

  TripGeneratorOptions demand;
  demand.num_vehicles = static_cast<int>(*vehicles);
  demand.horizon_seconds = *horizon;
  demand.seed = static_cast<uint64_t>(*seed);
  auto trips = GenerateTrips(*net, demand);
  if (!trips.ok()) return Fail(trips.status());

  MicrosimOptions sim;
  sim.total_seconds = *horizon;
  sim.record_every_seconds = *interval;
  auto result = RunMicrosim(*net, trips->trips, sim);
  if (!result.ok()) return Fail(result.status());
  if (result->densities.empty()) {
    return Fail(Status::Internal("simulation produced no snapshots"));
  }

  SnapshotSeries series(net->num_segments());
  for (size_t i = 0; i < result->densities.size(); ++i) {
    Status append = series.Append((i + 1) * *interval, result->densities[i]);
    if (!append.ok()) return Fail(append);
  }
  std::string series_path = flags.GetString("series", "");
  if (!series_path.empty()) {
    auto series_out = ResolveOutput(flags, series_path);
    if (!series_out.ok()) return Fail(series_out.status());
    Status st = SaveSnapshotSeries(series, *series_out);
    if (!st.ok()) return Fail(st);
    std::printf("wrote full series (%d snapshots) to %s\n",
                series.num_snapshots(), series_out->c_str());
  }
  int t = static_cast<int>(*snapshot);
  if (t < 0 || t >= static_cast<int>(result->densities.size())) {
    // Default: the peak snapshot (highest mean density).
    t = series.PeakSnapshot();
  }
  auto out = ResolveOutput(flags, flags.positional()[1]);
  if (!out.ok()) return Fail(out.status());
  Status st = SaveDensities(result->densities[t], *out);
  if (!st.ok()) return Fail(st);
  std::printf("simulated %zu snapshots (%d trips completed); wrote snapshot "
              "%d to %s\n",
              result->densities.size(), result->completed_trips, t,
              out->c_str());
  return 0;
}

int CmdAnalyze(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto scheme = ParseScheme(flags.GetString("scheme", "ASG"));
  if (!scheme.ok()) return Fail(scheme.status());
  auto k = flags.GetIntInRange("k", 4, 1, INT_MAX);
  if (!k.ok()) return Fail(k.status());
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());

  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());
  auto series = LoadSnapshotSeries(flags.positional()[1]);
  if (!series.ok()) return Fail(series.status());
  RoadGraph rg = RoadGraph::FromNetwork(*net);

  // Repeated full re-partitioning: one region (the whole network) re-cut
  // at every snapshot, cold, aborting on the first error.
  IntervalDriverOptions options;
  options.initial.k = 1;
  options.refresh.partitioner.scheme = *scheme;
  options.refresh.partitioner.k = static_cast<int>(*k);
  options.refresh.partitioner.seed = static_cast<uint64_t>(*seed);
  options.refresh.trigger_ratio = 0.0;
  options.refresh.warm_start_embeddings = false;
  options.strict = true;
  auto result = DriveIntervals(rg, *series, options);
  if (!result.ok()) return Fail(result.status());
  const RegimeChanges regimes =
      FindRegimeChanges(result->steps, /*threshold=*/0.25);

  std::printf("%10s %8s %10s %8s %8s %8s\n", "t(s)", "k", "mean_dens",
              "ANS", "churn", "sec");
  for (int t = 0; t < series->num_snapshots(); ++t) {
    const IntervalStep& step = result->steps[t];
    std::printf("%10.0f %8d %10.5f %8.4f %7.1f%% %8.3f\n",
                step.timestamp_seconds, step.k_final, series->MeanDensity(t),
                step.ans, 100.0 * step.churn, step.seconds);
  }
  std::printf("mean churn %.1f%%; regime changes at:",
              100.0 * regimes.mean_churn);
  if (regimes.indices.empty()) std::printf(" (none)");
  for (int t : regimes.indices) std::printf(" t=%d", t);
  std::printf("\n");
  return 0;
}

int CmdRefresh(const FlagParser& flags) {
  if (flags.positional().size() != 2) return Usage();
  auto scheme = ParseScheme(flags.GetString("scheme", "ASG"));
  if (!scheme.ok()) return Fail(scheme.status());
  auto inner_scheme = ParseScheme(flags.GetString("inner-scheme", "AG"));
  if (!inner_scheme.ok()) return Fail(inner_scheme.status());
  auto k = flags.GetIntInRange("k", 4, 1, INT_MAX);
  if (!k.ok()) return Fail(k.status());
  auto inner_k = flags.GetIntInRange("inner-k", 2, 1, INT_MAX);
  if (!inner_k.ok()) return Fail(inner_k.status());
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  auto trigger = flags.GetDouble("trigger-ratio", 0.05);
  auto boundary = flags.GetDouble("boundary-delta-ratio", 0.05);
  auto deadline = flags.GetDouble("deadline-seconds", 0.0);
  if (!trigger.ok() || !boundary.ok() || !deadline.ok()) return Usage();
  if (*deadline < 0.0) {
    return Fail(Status::InvalidArgument("--deadline-seconds must be >= 0"));
  }

  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());
  auto series = LoadSnapshotSeries(flags.positional()[1]);
  if (!series.ok()) return Fail(series.status());
  RoadGraph rg = RoadGraph::FromNetwork(*net);

  IntervalDriverOptions options;
  options.initial.scheme = *scheme;
  options.initial.k = static_cast<int>(*k);
  options.initial.seed = static_cast<uint64_t>(*seed);
  // The deadline applies per partition call: the snapshot-0 full cut and
  // each region's re-cut. An overrun region is kept whole and typed into
  // the interval's stats (failed column) — it degrades that interval, not
  // the run.
  options.initial.deadline_seconds = *deadline;
  options.refresh.partitioner.scheme = *inner_scheme;
  options.refresh.partitioner.k = static_cast<int>(*inner_k);
  options.refresh.partitioner.seed = static_cast<uint64_t>(*seed);
  options.refresh.partitioner.deadline_seconds = *deadline;
  options.refresh.trigger_ratio = *trigger;
  options.refresh.boundary_delta_ratio = *boundary;
  options.refresh.warm_start_embeddings =
      !flags.GetBool("no-warm-start", false);
  options.refresh.num_threads = DefaultParallelism();  // --threads
  options.strict = flags.GetBool("strict", false);

  auto result = DriveIntervals(rg, *series, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("initial %s k=%d: %d regions in %.3fs\n",
              SchemeName(*scheme), static_cast<int>(*k), result->k_top,
              result->initial_seconds);
  std::printf("%10s %6s %6s %6s %6s %6s %8s %8s %9s %9s %9s  %s\n", "t(s)",
              "k", "dirty", "clean", "warm", "fail", "ANS", "churn",
              "trig(s)", "part(s)", "merge(s)", "status");
  for (const IntervalStep& step : result->steps) {
    std::printf(
        "%10.0f %6d %6d %6d %6d %6d %8.4f %7.1f%% %9.4f %9.4f %9.4f  %s\n",
        step.timestamp_seconds, step.k_final, step.stats.dirty,
        step.stats.clean, step.stats.warm_started, step.stats.failed,
        step.ans, 100.0 * step.churn, step.stats.trigger_seconds,
        step.stats.subpartition_seconds, step.stats.merge_seconds,
        step.ok() ? "ok" : StatusCodeKebab(step.error_code));
  }
  return 0;
}

int CmdSweep(const FlagParser& flags) {
  if (flags.positional().size() != 1) return Usage();
  auto scheme = ParseScheme(flags.GetString("scheme", "ASG"));
  if (!scheme.ok()) return Fail(scheme.status());
  auto kmin = flags.GetIntInRange("kmin", 2, 1, INT_MAX);
  if (!kmin.ok()) return Fail(kmin.status());
  auto kmax = flags.GetIntInRange("kmax", 20, *kmin, INT_MAX);
  if (!kmax.ok()) return Fail(kmax.status());
  auto seed = flags.GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());

  auto net = LoadRoadNetwork(flags.positional()[0]);
  if (!net.ok()) return Fail(net.status());
  RoadGraph rg = RoadGraph::FromNetwork(*net);

  OptimalKOptions options;
  options.partitioner.scheme = *scheme;
  options.partitioner.seed = static_cast<uint64_t>(*seed);
  options.k_min = static_cast<int>(*kmin);
  options.k_max = static_cast<int>(*kmax);
  auto result = FindOptimalK(rg, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("%4s %10s %10s %10s %10s\n", "k", "inter", "intra", "GDBI",
              "ANS");
  for (const KSweepPoint& point : result->sweep) {
    std::printf("%4d %10.4f %10.4f %10.4f %10.4f\n", point.k, point.inter,
                point.intra, point.gdbi, point.ans);
  }
  std::printf("optimal k by ANS: %d (%.4f)", result->optimal_k,
              result->optimal_ans);
  if (!result->local_minima.empty()) {
    std::printf("; other candidates:");
    for (int k : result->local_minima) std::printf(" %d", k);
  }
  std::printf("\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  auto flags = FlagParser::Parse(
      argc - 2, argv + 2,
      {"preset", "seed", "hotspots", "scheme", "k", "stability", "kmin",
       "kmax", "vehicles", "horizon", "interval", "snapshot", "series",
       "threads", "deadline-seconds", "on-nonconvergence", "density-policy",
       "checkpoint-dir", "resume", "crash-after-stage", "geojson",
       "snapshot-out", "output-dir", "io-retry-attempts",
       "io-retry-base-delay", "inner-scheme", "inner-k", "trigger-ratio",
       "boundary-delta-ratio", "no-warm-start", "strict"},
      /*bool_flags=*/{"resume", "no-warm-start", "strict"});
  if (!flags.ok()) return Fail(flags.status());

  // Global thread knob: applies to every command; deterministic kernels make
  // this a pure performance setting.
  auto threads = flags->GetIntInRange("threads", 0, 0, INT_MAX);
  if (!threads.ok()) return Fail(threads.status());
  if (*threads > 0) SetDefaultParallelism(static_cast<int>(*threads));

  if (command == "generate") return CmdGenerate(*flags);
  if (command == "partition") return CmdPartition(*flags);
  if (command == "evaluate") return CmdEvaluate(*flags);
  if (command == "simulate") return CmdSimulate(*flags);
  if (command == "mine") return CmdMine(*flags);
  if (command == "analyze") return CmdAnalyze(*flags);
  if (command == "refresh") return CmdRefresh(*flags);
  if (command == "sweep") return CmdSweep(*flags);
  return Usage();
}

}  // namespace
}  // namespace roadpart

int main(int argc, char** argv) { return roadpart::Main(argc, argv); }
