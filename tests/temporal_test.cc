#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "common/durable_io.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "netgen/grid_generator.h"
#include "network/road_graph.h"
#include "pipeline/controller.h"
#include "temporal/interval_driver.h"
#include "temporal/snapshot_series.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

// --- SnapshotSeries ---

TEST(SnapshotSeriesTest, AppendValidates) {
  SnapshotSeries series(3);
  EXPECT_TRUE(series.Append(0.0, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(series.Append(1.0, {1.0, 2.0}).ok());        // wrong size
  EXPECT_FALSE(series.Append(0.0, {1.0, 2.0, 3.0}).ok());   // non-increasing
  EXPECT_FALSE(series.Append(2.0, {1.0, -2.0, 3.0}).ok());  // negative
  EXPECT_EQ(series.num_snapshots(), 1);
}

TEST(SnapshotSeriesTest, MeanDensity) {
  SnapshotSeries series(4);
  ASSERT_TRUE(series.Append(0.0, {1.0, 2.0, 3.0, 4.0}).ok());
  EXPECT_DOUBLE_EQ(series.MeanDensity(0), 2.5);
}

TEST(SnapshotSeriesTest, SegmentStatistics) {
  SnapshotSeries series(2);
  ASSERT_TRUE(series.Append(0.0, {1.0, 10.0}).ok());
  ASSERT_TRUE(series.Append(1.0, {3.0, 10.0}).ok());
  auto means = series.SegmentMeans();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
  auto stds = series.SegmentStdDevs();
  EXPECT_DOUBLE_EQ(stds[0], 1.0);  // values 1, 3 around mean 2
  EXPECT_DOUBLE_EQ(stds[1], 0.0);
}

TEST(SnapshotSeriesTest, ChangeDetection) {
  SnapshotSeries series(2);
  ASSERT_TRUE(series.Append(0.0, {1.0, 1.0}).ok());
  ASSERT_TRUE(series.Append(1.0, {1.0, 1.0}).ok());
  ASSERT_TRUE(series.Append(2.0, {5.0, 1.0}).ok());
  EXPECT_DOUBLE_EQ(series.ChangeFrom(0), 0.0);
  EXPECT_DOUBLE_EQ(series.ChangeFrom(1), 0.0);
  EXPECT_DOUBLE_EQ(series.ChangeFrom(2), 2.0);  // (|5-1| + 0) / 2
}

TEST(SnapshotSeriesTest, PeakSnapshot) {
  SnapshotSeries series(1);
  ASSERT_TRUE(series.Append(0.0, {0.1}).ok());
  ASSERT_TRUE(series.Append(1.0, {0.9}).ok());
  ASSERT_TRUE(series.Append(2.0, {0.5}).ok());
  EXPECT_EQ(series.PeakSnapshot(), 1);
}

// --- Repeated full re-partitioning: a one-region DriveIntervals ---

class EvolutionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GridOptions grid;
    grid.rows = 8;
    grid.cols = 8;
    grid.seed = 5;
    network_ = GenerateGridNetwork(grid).value();
    graph_ = RoadGraph::FromNetwork(network_);
  }

  // Full re-cut at every snapshot: one region (the whole network), every
  // interval dirty, cold solves, abort on the first error.
  static IntervalDriverOptions FullRecutOptions(Scheme scheme, int k) {
    IntervalDriverOptions options;
    options.initial.k = 1;
    options.refresh.partitioner.scheme = scheme;
    options.refresh.partitioner.k = k;
    options.refresh.partitioner.seed = 3;
    options.refresh.trigger_ratio = 0.0;
    options.refresh.warm_start_embeddings = false;
    options.strict = true;
    return options;
  }

  SnapshotSeries StableSeries(int snapshots) const {
    CongestionFieldOptions field_opt;
    field_opt.num_hotspots = 3;
    field_opt.voronoi_tiling = true;
    field_opt.noise_fraction = 0.02;
    field_opt.seed = 9;
    CongestionField field(network_, field_opt);
    SnapshotSeries series(network_.num_segments());
    // Slowly varying phases -> the same spatial structure every snapshot.
    for (int t = 0; t < snapshots; ++t) {
      EXPECT_TRUE(
          series.Append(t * 120.0, field.DensitiesAt(0.3 + 0.005 * t)).ok());
    }
    return series;
  }

  // Two hotspot regimes with completely different geometry; the flip lands
  // at t = 4.
  SnapshotSeries RegimeFlipSeries() const {
    CongestionFieldOptions before_opt;
    before_opt.num_hotspots = 2;
    before_opt.voronoi_tiling = true;
    before_opt.noise_fraction = 0.02;
    before_opt.seed = 11;
    CongestionField before(network_, before_opt);
    CongestionFieldOptions after_opt = before_opt;
    after_opt.seed = 77;
    CongestionField after(network_, after_opt);
    SnapshotSeries series(network_.num_segments());
    for (int t = 0; t < 8; ++t) {
      EXPECT_TRUE(series
                      .Append(t * 120.0,
                              t < 4 ? before.Densities() : after.Densities())
                      .ok());
    }
    return series;
  }

  RoadNetwork network_;
  RoadGraph graph_;
};

// FNV-1a over one step's aligned labels, k_final, ANS bits and churn bits.
uint64_t StepFingerprint(const IntervalStep& step) {
  uint64_t h = Fnv1a64(step.assignment.data(),
                       step.assignment.size() * sizeof(int));
  h = Fnv1a64(&step.k_final, sizeof(step.k_final), h);
  h = Fnv1a64(&step.ans, sizeof(step.ans), h);
  return Fnv1a64(&step.churn, sizeof(step.churn), h);
}

// The per-step fingerprints below were recorded from the former dedicated
// full-re-cut loop (re-partition, align, ANS, churn per snapshot); the
// one-region DriveIntervals must reproduce them bit for bit.
void ExpectFingerprints(const IntervalDriveResult& result,
                        const std::vector<uint64_t>& expected) {
  ASSERT_EQ(result.steps.size(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_TRUE(result.steps[t].ok()) << "step " << t;
    EXPECT_EQ(StepFingerprint(result.steps[t]), expected[t]) << "step " << t;
  }
}

TEST_F(EvolutionFixture, StableFieldLowChurn) {
  const SnapshotSeries series = StableSeries(5);
  auto result = DriveIntervals(graph_, series,
                               FullRecutOptions(Scheme::kASG, /*k=*/3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 5u);
  EXPECT_EQ(result->k_top, 1);
  EXPECT_LT(FindRegimeChanges(result->steps, 0.25).mean_churn, 0.35);
  for (const IntervalStep& step : result->steps) {
    EXPECT_EQ(step.k_final, 3);
    EXPECT_EQ(step.assignment.size(),
              static_cast<size_t>(network_.num_segments()));
  }
  ExpectFingerprints(*result,
                     {0xfea802b1529b0644ULL, 0x9cd4ed31dd83e422ULL,
                      0xa3b602ec6296e5a4ULL, 0x004150d9515fc5daULL,
                      0xe40a4d871513d8a2ULL});
}

TEST_F(EvolutionFixture, RegimeChangeDetected) {
  const SnapshotSeries series = RegimeFlipSeries();
  auto result = DriveIntervals(graph_, series,
                               FullRecutOptions(Scheme::kASG, /*k=*/2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The flip at t = 4 must register as a regime change.
  const RegimeChanges regimes = FindRegimeChanges(result->steps, 0.2);
  bool found = false;
  for (int t : regimes.indices) found |= (t == 4);
  EXPECT_TRUE(found) << "regime changes: " << regimes.indices.size();
  ExpectFingerprints(*result,
                     {0x4ddccec72d2f487fULL, 0x4ddccec72d2f487fULL,
                      0x4ddccec72d2f487fULL, 0x4ddccec72d2f487fULL,
                      0x4be14c9ffe9c5a68ULL, 0xe22158ac2a69a401ULL,
                      0xe22158ac2a69a401ULL, 0xe22158ac2a69a401ULL});
}

TEST_F(EvolutionFixture, FullRecutMatchesPinnedFingerprintsAG) {
  const SnapshotSeries series = RegimeFlipSeries();
  auto result = DriveIntervals(graph_, series,
                               FullRecutOptions(Scheme::kAG, /*k=*/3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(FindRegimeChanges(result->steps, 0.2).indices,
            std::vector<int>{4});
  ExpectFingerprints(*result,
                     {0x8765018c9ab2a082ULL, 0x8765018c9ab2a082ULL,
                      0x8765018c9ab2a082ULL, 0x8765018c9ab2a082ULL,
                      0x827c1c118f0d13c6ULL, 0x3228fc26b8057c0eULL,
                      0x3228fc26b8057c0eULL, 0x3228fc26b8057c0eULL});
}

TEST_F(EvolutionFixture, FullRecutMatchesPinnedFingerprintsNG) {
  const SnapshotSeries series = StableSeries(5);
  auto result = DriveIntervals(graph_, series,
                               FullRecutOptions(Scheme::kNG, /*k=*/4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(FindRegimeChanges(result->steps, 0.25).mean_churn, 0.0);
  ExpectFingerprints(*result,
                     {0x3975a524a85737beULL, 0xe7d968d1ca208980ULL,
                      0x62bdd35204872014ULL, 0x0e1464a0c65004fcULL,
                      0x9fd0a93c01efb816ULL});
}

TEST_F(EvolutionFixture, Validation) {
  const IntervalDriverOptions options = FullRecutOptions(Scheme::kASG, 6);
  SnapshotSeries wrong(graph_.num_nodes() + 1);
  EXPECT_FALSE(DriveIntervals(graph_, wrong, options).ok());
  SnapshotSeries empty(graph_.num_nodes());
  EXPECT_FALSE(DriveIntervals(graph_, empty, options).ok());
}

TEST(RegimeChangesTest, SpikeOverThresholdAndTwiceRunningMean) {
  std::vector<IntervalStep> steps(5);
  const double churn[] = {0.9, 0.1, 0.1, 0.5, 0.3};  // step 0 is ignored
  for (size_t t = 0; t < steps.size(); ++t) steps[t].churn = churn[t];
  const RegimeChanges regimes = FindRegimeChanges(steps, 0.25);
  // t=1: 0.1 under the threshold; t=3: 0.5 > 0.25 and > 2 * 0.7/3;
  // t=4: 0.3 > 0.25 but not > 2 * 1.0/4.
  EXPECT_EQ(regimes.indices, std::vector<int>{3});
  EXPECT_DOUBLE_EQ(regimes.mean_churn, 0.25);
  EXPECT_EQ(FindRegimeChanges({}, 0.25).mean_churn, 0.0);
}

// --- DriveIntervals failure containment ---

using IntervalDriverFixture = EvolutionFixture;

TEST_F(IntervalDriverFixture, FailedRegionRecutsIsolatePerStepNotPerSeries) {
  const SnapshotSeries series = StableSeries(4);
  IntervalDriverOptions options;
  options.initial.scheme = Scheme::kASG;
  options.initial.k = 3;
  options.initial.seed = 3;
  options.refresh.partitioner.scheme = Scheme::kAG;
  options.refresh.partitioner.k = 2;
  options.refresh.partitioner.seed = 3;
  // An impossible re-cut budget: every dirty region's inner partition
  // expires at its first module boundary and is kept whole. The refresh
  // itself still succeeds (stats.failed > 0), but a partition known to be
  // partially degraded must not be silently adopted.
  options.refresh.partitioner.deadline_seconds = 1e-9;
  options.refresh.trigger_ratio = 0.0;  // every region dirty every interval

  auto result = DriveIntervals(graph_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 4u);
  for (const IntervalStep& step : result->steps) {
    EXPECT_FALSE(step.ok());
    EXPECT_EQ(step.error_code, StatusCode::kDeadlineExceeded);
    EXPECT_NE(step.error_message.find("re-cuts failed"), std::string::npos);
    EXPECT_GT(step.stats.failed, 0);
    // The last good assignment carried forward: before any good interval,
    // the frozen top-level regions.
    EXPECT_EQ(step.assignment, result->regions);
    EXPECT_EQ(step.k_final, result->k_top);
    EXPECT_EQ(step.churn, 0.0);
    EXPECT_EQ(step.ans, 0.0);
  }

  // strict restores the historical abort-on-first-error behavior.
  options.strict = true;
  auto strict = DriveIntervals(graph_, series, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(IntervalDriverFixture, SingleFaultedIntervalDoesNotPoisonTheSeries) {
  const SnapshotSeries series = StableSeries(4);
  IntervalDriverOptions options;
  options.initial.scheme = Scheme::kAG;  // no mining: the fault cannot hit
  options.initial.k = 3;                 // the (fatal) snapshot-0 partition
  options.initial.seed = 3;
  options.refresh.partitioner.scheme = Scheme::kASG;  // re-cuts mine
  options.refresh.partitioner.k = 2;
  options.refresh.partitioner.seed = 3;

  // All-serial so a finite budget fires at a deterministic call site: the
  // first region re-cut of interval 0 (the engine's cold refresh).
  ScopedParallelism serial(1);
  FaultInjector injector(13);
  injector.Arm(FaultSite::kKMeans1DWorkspaceCorruption, 1);
  ScopedFaultInjector scoped(&injector);

  auto result = DriveIntervals(graph_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 4u);
  EXPECT_EQ(injector.fire_count(FaultSite::kKMeans1DWorkspaceCorruption), 1);

  const IntervalStep& poisoned = result->steps[0];
  EXPECT_EQ(poisoned.error_code, StatusCode::kInternal);
  EXPECT_EQ(poisoned.assignment, result->regions);
  // The budget is spent; every later interval proceeds and is adopted.
  for (size_t t = 1; t < result->steps.size(); ++t) {
    const IntervalStep& step = result->steps[t];
    EXPECT_TRUE(step.ok()) << "interval " << t << ": " << step.error_message;
    EXPECT_GE(step.k_final, result->k_top);  // every region has >= 1 part
  }
}

// A dead sensor at interval 2: the NaN must be rejected by the shared
// interval step in BOTH loops — recorded and carried over by DriveIntervals,
// quarantined by RunPipeline — never adopted as an `ok` step with ANS = NaN.
TEST_F(IntervalDriverFixture, NaNDensityIsRejectedByBothLoops) {
  const SnapshotSeries clean = StableSeries(5);
  SnapshotSeries poisoned(network_.num_segments());
  for (int t = 0; t < clean.num_snapshots(); ++t) {
    std::vector<double> densities = clean.densities(t);
    if (t == 2) densities[3] = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(poisoned.Append(clean.timestamp(t), densities).ok());
  }
  IntervalDriverOptions options;
  options.initial.scheme = Scheme::kASG;
  options.initial.k = 3;
  options.initial.seed = 3;
  options.refresh.partitioner.scheme = Scheme::kAG;
  options.refresh.partitioner.k = 2;
  options.refresh.partitioner.seed = 3;
  options.refresh.trigger_ratio = 0.05;

  auto result = DriveIntervals(graph_, poisoned, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->steps.size(), 5u);
  const IntervalStep& bad = result->steps[2];
  EXPECT_EQ(bad.error_code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(bad.refreshed);  // rejected before the engine saw it
  EXPECT_EQ(bad.assignment, result->steps[1].assignment);
  EXPECT_EQ(bad.k_final, result->steps[1].k_final);
  EXPECT_EQ(bad.ans, result->steps[1].ans);
  EXPECT_EQ(bad.churn, 0.0);
  for (int t : {0, 1, 3, 4}) {
    const IntervalStep& step = result->steps[t];
    EXPECT_TRUE(step.ok()) << "interval " << t << ": " << step.error_message;
    EXPECT_TRUE(std::isfinite(step.ans)) << "interval " << t;
  }

  PipelineOptions pipeline;
  pipeline.driver = options;
  pipeline.state_dir = testing::TempDir() + "/temporal_nan_pipeline";
  std::filesystem::remove_all(pipeline.state_dir);
  pipeline.ans_margin = 1e6;  // only the NaN may keep an interval back
  pipeline.churn_ceiling = 1.5;
  pipeline.retry.sleep = [](double) {};
  auto run = RunPipeline(network_, poisoned, pipeline);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->journal.entries.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    const PipelineJournalEntry& entry = run->journal.entries[t];
    EXPECT_EQ(entry.outcome, t == 2 ? PipelineIntervalOutcome::kQuarantined
                                    : PipelineIntervalOutcome::kPublished)
        << "interval " << t;
  }
  EXPECT_EQ(run->journal.entries[2].reason, "invalid-argument");
  std::filesystem::remove_all(pipeline.state_dir);
}

}  // namespace
}  // namespace roadpart
