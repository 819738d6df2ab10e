// Fault-injection suite: every armed fault must surface as a clean Status or
// as a partition that still passes ValidatePartitionLabels — never a crash,
// a hang, or silent garbage. Faults are deterministic (seeded), so the tests
// also pin down bit-identical degraded behavior across runs and thread
// counts.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

// --- Injector unit behavior ---

TEST(FaultInjectorTest, ArmBudgetAndFireCount) {
  FaultInjector inj(7);
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kDensityLoadNaN));
  inj.Arm(FaultSite::kDensityLoadNaN, 2);
  EXPECT_TRUE(inj.ShouldFire(FaultSite::kDensityLoadNaN));
  EXPECT_TRUE(inj.ShouldFire(FaultSite::kDensityLoadNaN));
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kDensityLoadNaN));  // budget spent
  EXPECT_EQ(inj.fire_count(FaultSite::kDensityLoadNaN), 2);
  EXPECT_EQ(inj.fire_count(FaultSite::kLanczosNonConvergence), 0);
}

TEST(FaultInjectorTest, DisarmClearsBudget) {
  FaultInjector inj(7);
  inj.Arm(FaultSite::kLanczosNonConvergence);
  inj.Disarm(FaultSite::kLanczosNonConvergence);
  EXPECT_FALSE(inj.ShouldFire(FaultSite::kLanczosNonConvergence));
}

TEST(FaultInjectorTest, PickIndicesDeterministicSortedDistinct) {
  FaultInjector a(42);
  FaultInjector b(42);
  std::vector<int> ia = a.PickIndices(100, 13);
  std::vector<int> ib = b.PickIndices(100, 13);
  EXPECT_EQ(ia, ib);  // same seed, same stream
  ASSERT_EQ(ia.size(), 13u);
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_GE(ia[i], 0);
    EXPECT_LT(ia[i], 100);
    if (i > 0) {
      EXPECT_LT(ia[i - 1], ia[i]);  // sorted, distinct
    }
  }
  FaultInjector c(43);
  EXPECT_NE(c.PickIndices(100, 13), ia);  // different seed, different choice
}

TEST(FaultInjectorTest, ScopedInstallerRestoresPrevious) {
  EXPECT_EQ(GlobalFaultInjector(), nullptr);
  FaultInjector inj(1);
  {
    ScopedFaultInjector scoped(&inj);
    EXPECT_EQ(GlobalFaultInjector(), &inj);
  }
  EXPECT_EQ(GlobalFaultInjector(), nullptr);
}

// --- Shared fixtures ---

// A chain road graph with a smooth density ramp: large enough that the
// Lanczos path runs when dense_threshold is lowered, well-conditioned enough
// that an unforced solve converges.
RoadGraph ChainGraph(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1.0});
  std::vector<double> f(n);
  for (int i = 0; i < n; ++i) f[i] = 0.05 * i + (i % 7) * 0.01;
  return RoadGraph::FromParts(CsrGraph::FromEdges(n, edges).value(), f)
      .value();
}

PartitionerOptions LanczosForcedOptions(NonConvergencePolicy policy) {
  PartitionerOptions options;
  options.scheme = Scheme::kNG;
  options.k = 3;
  options.seed = 11;
  options.spectral.dense_threshold = 4;  // push the top-level solve to Lanczos
  options.spectral.on_nonconvergence = policy;
  return options;
}

// --- Eigensolver fallback ladder ---

TEST(FaultInjectionTest, ForcedNonConvergenceRecoversViaRetry) {
  RoadGraph rg = ChainGraph(60);
  FaultInjector inj(3);
  inj.Arm(FaultSite::kLanczosNonConvergence, 1);  // sabotage first solve only
  ScopedFaultInjector scoped(&inj);
  auto outcome = Partitioner(LanczosForcedOptions(NonConvergencePolicy::kRetry))
                     .PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(inj.fire_count(FaultSite::kLanczosNonConvergence), 1);
  EXPECT_EQ(outcome->diagnostics.eigen.solver_path, SolverPath::kLanczosRetry);
  EXPECT_TRUE(outcome->diagnostics.eigen.all_converged);
  EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, rg.num_nodes(),
                                      outcome->k_final)
                  .ok());
}

TEST(FaultInjectionTest, PersistentNonConvergenceFallsBackToDense) {
  RoadGraph rg = ChainGraph(60);
  FaultInjector inj(3);
  inj.Arm(FaultSite::kLanczosNonConvergence);  // every solve fails
  ScopedFaultInjector scoped(&inj);
  auto outcome =
      Partitioner(LanczosForcedOptions(NonConvergencePolicy::kFallbackDense))
          .PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->diagnostics.eigen.solver_path,
            SolverPath::kDenseFallback);
  // The dense rung is exact, so the run still counts as converged.
  EXPECT_TRUE(outcome->diagnostics.eigen.all_converged);
  EXPECT_NE(outcome->diagnostics.eigen.solver_path,
            SolverPath::kLanczosFirstTry);
  EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, rg.num_nodes(),
                                      outcome->k_final)
                  .ok());
}

TEST(FaultInjectionTest, BestEffortAcceptsEstimateWhenDenseImpossible) {
  RoadGraph rg = ChainGraph(60);
  FaultInjector inj(3);
  inj.Arm(FaultSite::kLanczosNonConvergence);
  ScopedFaultInjector scoped(&inj);
  PartitionerOptions options =
      LanczosForcedOptions(NonConvergencePolicy::kBestEffort);
  options.spectral.dense_fallback_max = 0;  // forbid the dense rung
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->diagnostics.eigen.solver_path, SolverPath::kBestEffort);
  EXPECT_FALSE(outcome->diagnostics.eigen.all_converged);
  EXPECT_FALSE(outcome->diagnostics.warnings.empty());
  EXPECT_FALSE(outcome->diagnostics.clean());
  EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, rg.num_nodes(),
                                      outcome->k_final)
                  .ok());
}

TEST(FaultInjectionTest, FailPolicyReturnsNotConverged) {
  RoadGraph rg = ChainGraph(60);
  FaultInjector inj(3);
  inj.Arm(FaultSite::kLanczosNonConvergence);
  ScopedFaultInjector scoped(&inj);
  auto outcome = Partitioner(LanczosForcedOptions(NonConvergencePolicy::kFail))
                     .PartitionRoadGraph(rg);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotConverged);
}

TEST(FaultInjectionTest, RetryPolicyGivesUpWhenRetryAlsoFails) {
  RoadGraph rg = ChainGraph(60);
  FaultInjector inj(3);
  inj.Arm(FaultSite::kLanczosNonConvergence);  // retry fails too
  ScopedFaultInjector scoped(&inj);
  auto outcome = Partitioner(LanczosForcedOptions(NonConvergencePolicy::kRetry))
                     .PartitionRoadGraph(rg);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotConverged);
}

// --- Density loader corruption ---

std::string WriteDensityFile(const std::string& name, int n) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  for (int i = 0; i < n; ++i) out << 0.1 * i << "\n";
  return path;
}

TEST(FaultInjectionTest, InjectedNaNsRejectedOrRepaired) {
  std::string path = WriteDensityFile("fi_nan.densities", 40);
  FaultInjector inj(5);
  inj.Arm(FaultSite::kDensityLoadNaN, 1);
  ScopedFaultInjector scoped(&inj);
  auto densities = LoadDensities(path);
  std::remove(path.c_str());
  ASSERT_TRUE(densities.ok());
  int nans = 0;
  for (double d : *densities) nans += std::isnan(d) ? 1 : 0;
  ASSERT_GT(nans, 0);  // the fault actually corrupted entries

  auto rejected = SanitizeDensities(*densities, DensityPolicy::kReject, 40);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DensityRepairReport report;
  auto repaired = SanitizeDensities(*densities, DensityPolicy::kClampAndWarn,
                                    40, &report);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(report.nan_replaced, nans);
  for (double d : *repaired) EXPECT_TRUE(std::isfinite(d));
}

TEST(FaultInjectionTest, ShortReadRejectedOrPadded) {
  std::string path = WriteDensityFile("fi_short.densities", 40);
  FaultInjector inj(5);
  inj.Arm(FaultSite::kDensityLoadShortRead, 1);
  ScopedFaultInjector scoped(&inj);
  auto densities = LoadDensities(path);
  std::remove(path.c_str());
  ASSERT_TRUE(densities.ok());
  ASSERT_LT(densities->size(), 40u);  // the fault actually truncated

  auto rejected = SanitizeDensities(*densities, DensityPolicy::kReject, 40);
  ASSERT_FALSE(rejected.ok());

  DensityRepairReport report;
  auto repaired = SanitizeDensities(*densities, DensityPolicy::kClampAndWarn,
                                    40, &report);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->size(), 40u);
  EXPECT_EQ(report.padded, 40 - static_cast<int>(densities->size()));
}

TEST(FaultInjectionTest, NaNDensitiesEndToEndUnderBothPolicies) {
  RoadGraph clean = ChainGraph(30);
  std::vector<double> poisoned = clean.features();
  FaultInjector picker(9);
  for (int i : picker.PickIndices(30, 4)) {
    poisoned[i] = std::nan("");
  }
  RoadGraph rg =
      RoadGraph::FromParts(clean.adjacency(), poisoned).value();

  PartitionerOptions options;
  options.scheme = Scheme::kNG;
  options.k = 3;
  options.seed = 2;
  options.density_policy = DensityPolicy::kReject;
  auto rejected = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  options.density_policy = DensityPolicy::kClampAndWarn;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->diagnostics.density_repairs.nan_replaced, 4);
  EXPECT_FALSE(outcome->diagnostics.warnings.empty());
  EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, rg.num_nodes(),
                                      outcome->k_final)
                  .ok());
}

// --- Degenerate embedding in k-means ---

TEST(FaultInjectionTest, DegenerateEmbeddingStillYieldsValidClustering) {
  DenseMatrix points(24, 3);
  for (int i = 0; i < 24; ++i) {
    for (int d = 0; d < 3; ++d) points(i, d) = 0.1 * i + 0.01 * d;
  }
  FaultInjector inj(5);
  inj.Arm(FaultSite::kKMeansDegenerateEmbedding, 1);
  ScopedFaultInjector scoped(&inj);
  KMeansOptions options;
  options.seed = 3;
  auto result = KMeansRows(points, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(inj.fire_count(FaultSite::kKMeansDegenerateEmbedding), 1);
  ASSERT_EQ(result->assignment.size(), 24u);
  for (int a : result->assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

TEST(FaultInjectionTest, DegenerateEmbeddingEndToEnd) {
  RoadGraph rg = ChainGraph(40);
  FaultInjector inj(5);
  inj.Arm(FaultSite::kKMeansDegenerateEmbedding, 1);
  ScopedFaultInjector scoped(&inj);
  PartitionerOptions options;
  options.scheme = Scheme::kNG;
  options.k = 3;
  options.seed = 8;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, rg.num_nodes(),
                                      outcome->k_final)
                  .ok());
}

// --- Shared 1-D k-means workspace corruption ---

RoadGraph MiningFixtureGraph() {
  RoadGraph chain = ChainGraph(80);
  // Plateau densities so mining finds several supernodes.
  std::vector<double> f(80);
  for (int i = 0; i < 80; ++i) f[i] = static_cast<double>(i / 20);
  return RoadGraph::FromParts(chain.adjacency(), f).value();
}

TEST(FaultInjectionTest, KMeansWorkspaceCorruptionSurfacesAsStatus) {
  RoadGraph rg = MiningFixtureGraph();
  FaultInjector inj(13);
  // Unlimited budget: the site is queried from inside the sweep's
  // ParallelForTasks, so a finite budget would make which kappa trips it
  // depend on scheduling. Unlimited keeps the degraded run deterministic.
  inj.Arm(FaultSite::kKMeans1DWorkspaceCorruption);
  ScopedFaultInjector scoped(&inj);
  auto sg = MineSupergraph(rg);
  ASSERT_FALSE(sg.ok());
  EXPECT_EQ(sg.status().code(), StatusCode::kInternal);
  EXPECT_GT(inj.fire_count(FaultSite::kKMeans1DWorkspaceCorruption), 0);
}

TEST(FaultInjectionTest, KMeansWorkspaceCorruptionDeterministicAcrossThreads) {
  RoadGraph rg = MiningFixtureGraph();
  auto run = [&](int num_threads) {
    FaultInjector inj(13);
    inj.Arm(FaultSite::kKMeans1DWorkspaceCorruption);
    ScopedFaultInjector scoped(&inj);
    ScopedParallelism threads(num_threads);
    auto sg = MineSupergraph(rg);
    RP_CHECK(!sg.ok());
    return sg.status().ToString();
  };
  std::string serial = run(1);
  EXPECT_EQ(run(1), serial);
  EXPECT_EQ(run(4), serial);  // same first-failing kappa at any thread count
  EXPECT_EQ(run(8), serial);
}

// --- Serving-snapshot faults ---

// A saved snapshot of a small two-way grid; returns the path.
std::string SavedSnapshotFixture(const std::string& name) {
  GridOptions grid;
  grid.rows = 3;
  grid.cols = 4;
  grid.two_way_fraction = 1.0;
  grid.seed = 4;
  auto net = GenerateGridNetwork(grid);
  RP_CHECK(net.ok());
  std::vector<int> labels(static_cast<size_t>(net->num_segments()));
  for (size_t s = 0; s < labels.size(); ++s) {
    labels[s] = static_cast<int>(s % 3);
  }
  auto snap = Snapshot::Build(*net, labels);
  RP_CHECK(snap.ok());
  std::string path = testing::TempDir() + "/" + name;
  RP_CHECK_OK(snap->Save(path));
  return path;
}

TEST(FaultInjectionTest, SnapshotShortReadSurfacesAsTypedCorruption) {
  std::string path = SavedSnapshotFixture("fi_snapshot_short.rpsnap");
  FaultInjector inj(21);
  inj.Arm(FaultSite::kSnapshotShortRead, 1);
  ScopedFaultInjector scoped(&inj);
  auto snap = Snapshot::Load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption)
      << snap.status().ToString();
  EXPECT_EQ(inj.fire_count(FaultSite::kSnapshotShortRead), 1);
}

TEST(FaultInjectionTest, SnapshotStaleFingerprintSurfacesAsTypedCorruption) {
  std::string path = SavedSnapshotFixture("fi_snapshot_stale.rpsnap");
  FaultInjector inj(22);
  inj.Arm(FaultSite::kSnapshotStaleFingerprint, 1);
  ScopedFaultInjector scoped(&inj);
  auto snap = Snapshot::Load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption)
      << snap.status().ToString();
  EXPECT_NE(snap.status().message().find("stale"), std::string::npos)
      << snap.status().ToString();
  EXPECT_EQ(inj.fire_count(FaultSite::kSnapshotStaleFingerprint), 1);
}

TEST(FaultInjectionTest, SnapshotFaultsDeterministicAcrossThreads) {
  // The sites are queried from the (serial) Load path, but the surrounding
  // serving stack is threaded; the degraded behavior must not depend on the
  // thread count. Unlimited budgets, as with every parallel-adjacent site.
  std::string path = SavedSnapshotFixture("fi_snapshot_threads.rpsnap");
  auto run = [&](int num_threads, FaultSite site) {
    FaultInjector inj(23);
    inj.Arm(site);
    ScopedFaultInjector scoped(&inj);
    ScopedParallelism threads(num_threads);
    auto snap = Snapshot::Load(path);
    RP_CHECK(!snap.ok());
    return snap.status().ToString();
  };
  for (FaultSite site :
       {FaultSite::kSnapshotShortRead, FaultSite::kSnapshotStaleFingerprint}) {
    std::string serial = run(1, site);
    EXPECT_EQ(run(1, site), serial);
    EXPECT_EQ(run(4, site), serial);
    EXPECT_EQ(run(8, site), serial);
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, SnapshotSiteNamesAreRegistered) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kSnapshotShortRead),
               "snapshot-short-read");
  EXPECT_STREQ(FaultSiteName(FaultSite::kSnapshotStaleFingerprint),
               "snapshot-stale-fingerprint");
  EXPECT_STREQ(FaultSiteName(FaultSite::kSnapshotSwapCorruption),
               "snapshot-swap-corruption");
  EXPECT_STREQ(FaultSiteName(FaultSite::kServeShedOverflow),
               "serve-shed-overflow");
  EXPECT_STREQ(FaultSiteName(FaultSite::kServeQueryTimeout),
               "serve-query-timeout");
}

TEST(FaultInjectionTest, RepartitionSiteNamesAreRegistered) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kWarmStartCorruption),
               "warm-start-corruption");
  EXPECT_STREQ(FaultSiteName(FaultSite::kDirtyDetectOverflow),
               "dirty-detect-overflow");
}

TEST(FaultInjectionTest, RepartitionSitesArmAndCount) {
  // The incremental-repartition sites follow the standard budget contract:
  // armed fires decrement, cold sites never fire. (End-to-end behavior —
  // cold-started solves, all-dirty refreshes — is covered in
  // core_distributed_test.cc.)
  FaultInjector inj(31);
  inj.Arm(FaultSite::kWarmStartCorruption, 2);
  ScopedFaultInjector scoped(&inj);
  EXPECT_TRUE(RP_FAULT_FIRES(FaultSite::kWarmStartCorruption));
  EXPECT_TRUE(RP_FAULT_FIRES(FaultSite::kWarmStartCorruption));
  EXPECT_FALSE(RP_FAULT_FIRES(FaultSite::kWarmStartCorruption));
  EXPECT_FALSE(RP_FAULT_FIRES(FaultSite::kDirtyDetectOverflow));
  EXPECT_EQ(inj.fire_count(FaultSite::kWarmStartCorruption), 2);
  EXPECT_EQ(inj.fire_count(FaultSite::kDirtyDetectOverflow), 0);
}

TEST(FaultInjectionTest, PipelineSiteNamesAreRegistered) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kPipelineQuarantinedInterval),
               "pipeline-quarantined-interval");
  EXPECT_STREQ(FaultSiteName(FaultSite::kPipelinePublishGateReject),
               "pipeline-publish-gate-reject");
  EXPECT_STREQ(FaultSiteName(FaultSite::kPipelineJournalCorruption),
               "pipeline-journal-corruption");
}

TEST(FaultInjectionTest, PipelineSitesArmAndCount) {
  // Standard budget contract for the continuous-operation sites; their
  // end-to-end behavior (quarantined intervals, vetoed publishes, journal
  // cold restarts) is covered in pipeline_test.cc / pipeline_chaos_test.cc.
  FaultInjector inj(37);
  inj.Arm(FaultSite::kPipelineQuarantinedInterval, 1);
  inj.Arm(FaultSite::kPipelinePublishGateReject, 1);
  ScopedFaultInjector scoped(&inj);
  EXPECT_TRUE(RP_FAULT_FIRES(FaultSite::kPipelineQuarantinedInterval));
  EXPECT_FALSE(RP_FAULT_FIRES(FaultSite::kPipelineQuarantinedInterval));
  EXPECT_TRUE(RP_FAULT_FIRES(FaultSite::kPipelinePublishGateReject));
  EXPECT_FALSE(RP_FAULT_FIRES(FaultSite::kPipelineJournalCorruption));
  EXPECT_EQ(inj.fire_count(FaultSite::kPipelineQuarantinedInterval), 1);
  EXPECT_EQ(inj.fire_count(FaultSite::kPipelinePublishGateReject), 1);
  EXPECT_EQ(inj.fire_count(FaultSite::kPipelineJournalCorruption), 0);
}

// --- Determinism under faults ---

std::vector<int> RunWithFaults(const RoadGraph& rg, int num_threads) {
  FaultInjector inj(77);
  inj.Arm(FaultSite::kLanczosNonConvergence, 1);
  inj.Arm(FaultSite::kKMeansDegenerateEmbedding, 1);
  ScopedFaultInjector scoped(&inj);
  PartitionerOptions options =
      LanczosForcedOptions(NonConvergencePolicy::kBestEffort);
  options.num_threads = num_threads;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  RP_CHECK(outcome.ok());
  return outcome->assignment;
}

TEST(FaultInjectionTest, FaultedRunsAreDeterministicAcrossRunsAndThreads) {
  RoadGraph rg = ChainGraph(60);
  std::vector<int> first = RunWithFaults(rg, 1);
  EXPECT_EQ(RunWithFaults(rg, 1), first);  // same seed + faults, same result
  EXPECT_EQ(RunWithFaults(rg, 4), first);  // thread count cannot matter
}

}  // namespace
}  // namespace roadpart
