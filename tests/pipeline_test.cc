// The continuous-operation pipeline (src/pipeline/): supervised
// refresh -> publish -> serve over a snapshot series.
//
//  - rpjournal artifact: bit-exact round trip; a corrupt, truncated,
//    missing, differently-keyed, or injected-corrupt journal loads as "no
//    journal" with a warning — never an error;
//  - failure containment: a poisoned (NaN) snapshot, an expired re-cut
//    deadline, or the injected quarantine site isolates THAT interval with
//    a typed kebab reason while serving stays on the last good snapshot;
//  - publication gate: ANS floor and churn ceiling record `degraded` and
//    raise the staleness counter instead of publishing a regressed cut;
//  - crash-resume: a run over a series prefix followed by a resumed run
//    over the full series produces a journal byte-identical to one
//    uninterrupted run, at every thread count;
//  - degenerate series: single snapshot; every interval quarantined
//    (serving never moves off the preloaded snapshot);
//  - serving integration: `!stats` / `!health` surface the pipeline's
//    counters and last typed reason exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "netgen/grid_generator.h"
#include "roadpart/roadpart.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A state dir that starts empty: resume tests re-use the SAME path so the
// journal bytes (which embed snapshot paths) stay comparable across runs.
std::string FreshStateDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  RP_CHECK(bytes.ok());
  return std::move(bytes).value();
}

// Shared fixture: an 8x8 grid with a hotspot congestion field (the
// temporal_test idiom — small enough for fast spectral cuts, structured
// enough that the partition is non-trivial).
class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GridOptions grid;
    grid.rows = 8;
    grid.cols = 8;
    grid.seed = 5;
    network_ = GenerateGridNetwork(grid).value();
  }

  // A slowly-varying series: same spatial structure every snapshot.
  SnapshotSeries StableSeries(int snapshots, uint64_t seed = 9) const {
    CongestionFieldOptions field_opt;
    field_opt.num_hotspots = 3;
    field_opt.voronoi_tiling = true;
    field_opt.noise_fraction = 0.02;
    field_opt.seed = seed;
    CongestionField field(network_, field_opt);
    SnapshotSeries series(network_.num_segments());
    for (int t = 0; t < snapshots; ++t) {
      RP_CHECK_OK(series.Append(t * 120.0, field.DensitiesAt(0.3 + 0.005 * t)));
    }
    return series;
  }

  // Baseline options: generous gate (nothing degrades), no real sleeping.
  PipelineOptions BaseOptions(const std::string& state_dir) const {
    PipelineOptions options;
    options.driver.initial.scheme = Scheme::kASG;
    options.driver.initial.k = 3;
    options.driver.initial.seed = 3;
    options.driver.refresh.partitioner.scheme = Scheme::kAG;
    options.driver.refresh.partitioner.k = 2;
    options.driver.refresh.partitioner.seed = 3;
    options.driver.refresh.trigger_ratio = 0.05;
    options.state_dir = state_dir;
    options.ans_margin = 1e6;     // gate never trips on quality ...
    options.churn_ceiling = 1.5;  // ... or churn, unless a test tightens it
    options.retry.sleep = [](double) {};  // instant backoff
    return options;
  }

  RoadNetwork network_;
};

// --- rpjournal artifact -----------------------------------------------------

PipelineJournal SampleJournal() {
  PipelineJournal j;
  j.key = 0xfeedfacecafe1234ull;
  j.k_top = 3;
  j.regions = {0, 1, 2, 1, 0, 2};
  j.tracker_reference = {0, 1, 2, 3, 0, 2};
  j.tracker_next_id = 4;
  j.last_published_path = "state/snap-000001.rpsnap";
  j.last_published_ans = 0.12345678901234567;
  j.staleness = 2;
  PipelineJournalEntry published;
  published.index = 0;
  published.timestamp_seconds = 120.0;
  published.input_fingerprint = 0xabcdef12ull;
  published.outcome = PipelineIntervalOutcome::kPublished;
  published.reason = "none";
  published.refreshed = true;
  published.ans = 0.25;
  published.churn = 0.0;
  published.snapshot_path = "state/snap-000000.rpsnap";
  PipelineJournalEntry degraded = published;
  degraded.index = 1;
  degraded.timestamp_seconds = 240.0;
  degraded.outcome = PipelineIntervalOutcome::kDegraded;
  degraded.reason = "ans-regression";
  degraded.retries = 1;
  degraded.staleness = 1;
  degraded.ans = 0.5;
  degraded.churn = 0.25;
  degraded.snapshot_path = "-";
  PipelineJournalEntry quarantined = degraded;
  quarantined.index = 2;
  quarantined.timestamp_seconds = 360.0;
  quarantined.outcome = PipelineIntervalOutcome::kQuarantined;
  quarantined.reason = "deadline-exceeded";
  quarantined.refreshed = false;
  quarantined.retries = 0;
  quarantined.staleness = 2;
  j.entries = {published, degraded, quarantined};
  return j;
}

TEST(PipelineJournalTest, RoundTripIsBitExact) {
  const PipelineJournal j = SampleJournal();
  const std::string path = TempPath("journal_roundtrip.rpj");
  ASSERT_TRUE(SaveJournal(j, path).ok());

  std::vector<std::string> warnings;
  auto loaded = LoadJournal(path, j.key, {}, &warnings);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(warnings.empty());

  // Strongest equality: re-saving the loaded journal reproduces the file
  // byte for byte (doubles ride as IEEE-754 bit patterns).
  const std::string resaved = TempPath("journal_resaved.rpj");
  ASSERT_TRUE(SaveJournal(*loaded, resaved).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(resaved));

  EXPECT_EQ(loaded->k_top, 3);
  EXPECT_EQ(loaded->regions, j.regions);
  EXPECT_EQ(loaded->tracker_reference, j.tracker_reference);
  EXPECT_EQ(loaded->tracker_next_id, 4);
  EXPECT_EQ(loaded->last_published_path, j.last_published_path);
  EXPECT_EQ(loaded->last_published_ans, j.last_published_ans);
  EXPECT_EQ(loaded->staleness, 2);
  ASSERT_EQ(loaded->entries.size(), 3u);
  EXPECT_EQ(loaded->entries[1].reason, "ans-regression");
  EXPECT_EQ(loaded->entries[1].retries, 1);
  EXPECT_EQ(loaded->entries[2].outcome,
            PipelineIntervalOutcome::kQuarantined);
  EXPECT_FALSE(loaded->entries[2].refreshed);
}

// The rpjournal v1 payload is pinned byte for byte: resumed runs read
// journals written by earlier builds.
TEST(PipelineJournalTest, PayloadBytesArePinned) {
  const std::string path = TempPath("journal_golden.rpj");
  ASSERT_TRUE(SaveJournal(SampleJournal(), path).ok());
  ArtifactInfo info;
  auto payload = ReadArtifact(path, {}, &info);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(info.format, "rpjournal");
  EXPECT_EQ(info.version, 1);
  EXPECT_EQ(*payload,
            "key feedfacecafe1234\n"
            "ktop 3\n"
            "regions 6 0 1 2 1 0 2\n"
            "tracker 4 6 0 1 2 3 0 2\n"
            "last_published state/snap-000001.rpsnap ans 3fbf9add3746f65e "
            "staleness 2\n"
            "intervals 3\n"
            "interval 0 ts 405e000000000000 input 00000000abcdef12 outcome "
            "published reason none refreshed 1 retries 0 staleness 0 ans "
            "3fd0000000000000 churn 0000000000000000 snapshot "
            "state/snap-000000.rpsnap\n"
            "interval 1 ts 406e000000000000 input 00000000abcdef12 outcome "
            "degraded reason ans-regression refreshed 1 retries 1 staleness 1 "
            "ans 3fe0000000000000 churn 3fd0000000000000 snapshot -\n"
            "interval 2 ts 4076800000000000 input 00000000abcdef12 outcome "
            "quarantined reason deadline-exceeded refreshed 0 retries 0 "
            "staleness 2 ans 3fe0000000000000 churn 3fd0000000000000 "
            "snapshot -\n");
}

// A checksum only vouches for the bytes; the decoder must still refuse a
// valid envelope whose payload carries extra fields or records.
TEST(PipelineJournalTest, TrailingDataInValidEnvelopeColdRestarts) {
  const PipelineJournal j = SampleJournal();
  const std::string path = TempPath("journal_trailing.rpj");
  ASSERT_TRUE(SaveJournal(j, path).ok());
  auto payload = ReadArtifact(path);
  ASSERT_TRUE(payload.ok());
  // One extra field on the last record line.
  std::string widened = *payload;
  widened.insert(widened.size() - 1, " trailing");
  for (const std::string& mutated :
       {*payload + "interval 99 garbage trailing\n", widened}) {
    ASSERT_TRUE(WriteArtifact(path, "rpjournal", 1, mutated).ok());
    std::vector<std::string> warnings;
    EXPECT_FALSE(LoadJournal(path, j.key, {}, &warnings).has_value());
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("pipeline journal not adopted"),
              std::string::npos)
        << warnings[0];
  }
}

TEST(PipelineJournalTest, MissingKeyedOrTornJournalsColdRestart) {
  const PipelineJournal j = SampleJournal();
  const std::string path = TempPath("journal_torn.rpj");
  ASSERT_TRUE(SaveJournal(j, path).ok());

  // Missing file.
  std::vector<std::string> warnings;
  EXPECT_FALSE(
      LoadJournal(TempPath("no_such.rpj"), j.key, {}, &warnings).has_value());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("cold restart"), std::string::npos);

  // Wrong key: someone else's history.
  warnings.clear();
  EXPECT_FALSE(LoadJournal(path, j.key ^ 1, {}, &warnings).has_value());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("keyed to a different"), std::string::npos);

  // Every single-byte flip of the artifact: either the envelope checksum
  // catches it or the strict decode does; adoption never happens and no
  // call errors out.
  const std::string original = ReadAll(path);
  const std::string flip_path = TempPath("journal_flip.rpj");
  for (size_t offset = 0; offset < original.size(); offset += 7) {
    std::string mutated = original;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5A);
    ASSERT_TRUE(AtomicWriteFile(flip_path, mutated).ok());
    warnings.clear();
    EXPECT_FALSE(LoadJournal(flip_path, j.key, {}, &warnings).has_value())
        << "byte flip at offset " << offset << " was adopted";
    EXPECT_EQ(warnings.size(), 1u);
  }

  // Truncation.
  ASSERT_TRUE(
      AtomicWriteFile(flip_path, original.substr(0, original.size() / 2))
          .ok());
  warnings.clear();
  EXPECT_FALSE(LoadJournal(flip_path, j.key, {}, &warnings).has_value());
  EXPECT_EQ(warnings.size(), 1u);
}

TEST(PipelineJournalTest, InjectedCorruptionColdRestarts) {
  const PipelineJournal j = SampleJournal();
  const std::string path = TempPath("journal_injected.rpj");
  ASSERT_TRUE(SaveJournal(j, path).ok());

  FaultInjector injector(7);
  injector.Arm(FaultSite::kPipelineJournalCorruption, 1);
  ScopedFaultInjector scoped(&injector);
  std::vector<std::string> warnings;
  EXPECT_FALSE(LoadJournal(path, j.key, {}, &warnings).has_value());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("injected"), std::string::npos);
  EXPECT_EQ(injector.fire_count(FaultSite::kPipelineJournalCorruption), 1);

  // Budget spent: the same file now loads.
  warnings.clear();
  EXPECT_TRUE(LoadJournal(path, j.key, {}, &warnings).has_value());
  EXPECT_TRUE(warnings.empty());
}

TEST(PipelineJournalTest, OutcomeTokensRoundTrip) {
  for (PipelineIntervalOutcome outcome :
       {PipelineIntervalOutcome::kPublished, PipelineIntervalOutcome::kDegraded,
        PipelineIntervalOutcome::kQuarantined}) {
    auto parsed = ParsePipelineOutcome(PipelineOutcomeName(outcome));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, outcome);
  }
  EXPECT_FALSE(ParsePipelineOutcome("exploded").ok());
}

// --- Healthy runs, determinism, resume --------------------------------------

TEST_F(PipelineFixture, HealthySeriesPublishesEveryInterval) {
  const SnapshotSeries series = StableSeries(6);
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_healthy"));
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stats.intervals, 6);
  EXPECT_EQ(result->stats.published, 6);
  EXPECT_EQ(result->stats.degraded, 0);
  EXPECT_EQ(result->stats.quarantined, 0);
  EXPECT_EQ(result->stats.resumed, 0);
  EXPECT_EQ(result->stats.staleness, 0);
  ASSERT_EQ(result->journal.entries.size(), 6u);
  for (const PipelineJournalEntry& e : result->journal.entries) {
    EXPECT_EQ(e.outcome, PipelineIntervalOutcome::kPublished);
    EXPECT_EQ(e.reason, "none");
    EXPECT_TRUE(e.refreshed);
    EXPECT_EQ(e.staleness, 0);
    // Every published snapshot is durably on disk and loadable.
    auto snap = Snapshot::Load(e.snapshot_path);
    ASSERT_TRUE(snap.ok()) << e.snapshot_path;
    EXPECT_EQ(snap->num_segments(), network_.num_segments());
  }
  EXPECT_EQ(result->last_published_path,
            result->journal.entries.back().snapshot_path);

  // The durable journal equals the in-memory one.
  std::vector<std::string> warnings;
  auto reloaded = LoadJournal(result->journal_path, result->journal.key, {},
                              &warnings);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->entries.size(), 6u);
  EXPECT_EQ(reloaded->last_published_path, result->last_published_path);
}

TEST_F(PipelineFixture, JournalBytesAreThreadCountInvariant) {
  const SnapshotSeries series = StableSeries(5);
  // Same state-dir PATH for every run (journal bytes embed snapshot paths),
  // recreated cold each time.
  const std::string dir = TempPath("pipe_threads");
  auto run = [&](int threads) {
    std::filesystem::remove_all(dir);
    PipelineOptions options = BaseOptions(dir);
    options.driver.refresh.num_threads = threads;
    auto result = RunPipeline(network_, series, options);
    RP_CHECK(result.ok());
    return ReadAll(result->journal_path);
  };
  const std::string reference = run(1);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(8), reference);
}

TEST_F(PipelineFixture, ResumedRunReproducesUninterruptedJournalBytes) {
  const SnapshotSeries series = StableSeries(6);
  SnapshotSeries prefix(network_.num_segments());
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(prefix.Append(series.timestamp(t), series.densities(t)).ok());
  }
  const std::string dir = TempPath("pipe_resume");

  // Uninterrupted reference over the same state-dir path.
  std::filesystem::remove_all(dir);
  auto reference = RunPipeline(network_, series, BaseOptions(dir));
  ASSERT_TRUE(reference.ok());
  const std::string reference_journal = ReadAll(reference->journal_path);

  // Interrupted: the series prefix first, then the full series resumes.
  std::filesystem::remove_all(dir);
  auto first = RunPipeline(network_, prefix, BaseOptions(dir));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.intervals, 3);
  auto second = RunPipeline(network_, series, BaseOptions(dir));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.resumed, 3);
  EXPECT_EQ(second->stats.intervals, 6);
  EXPECT_EQ(ReadAll(second->journal_path), reference_journal);

  // --no-resume cold-starts over the same dir and still reproduces the
  // reference (the journal is simply overwritten).
  PipelineOptions cold = BaseOptions(dir);
  cold.resume = false;
  auto third = RunPipeline(network_, series, cold);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.resumed, 0);
  EXPECT_EQ(ReadAll(third->journal_path), reference_journal);
}

// The resume replay: when the rpinc cache is missing or records a different
// refresh count than the journal, the engine is rebuilt by replaying every
// journaled refresh. A prefix run stands in for a crash after its last
// interval: the cache and journal are saved after every interval and
// nothing is written after the loop.
TEST_F(PipelineFixture, ResumeReplaysAMissingOrStaleCache) {
  const SnapshotSeries series = StableSeries(6);
  auto prefix_of = [&](int n) {
    SnapshotSeries prefix(network_.num_segments());
    for (int t = 0; t < n; ++t) {
      RP_CHECK_OK(prefix.Append(series.timestamp(t), series.densities(t)));
    }
    return prefix;
  };
  auto warned = [](const PipelineRunResult& result, const std::string& what) {
    for (const std::string& w : result.warnings) {
      if (w.find(what) != std::string::npos) return true;
    }
    return false;
  };
  const std::string dir = TempPath("pipe_replay");
  const std::string cache = dir + "/cache.rpinc";

  std::filesystem::remove_all(dir);
  auto reference = RunPipeline(network_, series, BaseOptions(dir));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string reference_journal = ReadAll(reference->journal_path);
  // The cache records the refresh count and every region's warm state, so
  // it differs unless the replay rebuilt the engine exactly.
  const std::string reference_cache = ReadAll(cache);

  // Crash after interval 2, then the cache is lost.
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(RunPipeline(network_, prefix_of(3), BaseOptions(dir)).ok());
  ASSERT_TRUE(std::filesystem::remove(cache));
  auto missing = RunPipeline(network_, series, BaseOptions(dir));
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->stats.resumed, 3);
  EXPECT_TRUE(warned(*missing, "incremental cache not adopted"));
  EXPECT_EQ(ReadAll(missing->journal_path), reference_journal);
  EXPECT_EQ(ReadAll(cache), reference_cache);

  // A cache one interval newer than the journal — a crash between the
  // cache save and the journal save of interval 3.
  std::filesystem::remove_all(dir);
  auto first = RunPipeline(network_, prefix_of(3), BaseOptions(dir));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string journal_after_2 = ReadAll(first->journal_path);
  ASSERT_TRUE(RunPipeline(network_, prefix_of(4), BaseOptions(dir)).ok());
  ASSERT_TRUE(AtomicWriteFile(first->journal_path, journal_after_2).ok());
  auto stale = RunPipeline(network_, series, BaseOptions(dir));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->stats.resumed, 3);
  EXPECT_TRUE(warned(*stale, "incremental cache records 4 refreshes but the "
                             "journal 3; replaying"));
  EXPECT_EQ(ReadAll(stale->journal_path), reference_journal);
  EXPECT_EQ(ReadAll(cache), reference_cache);
}

TEST_F(PipelineFixture, ResumeRejectsAForeignSeries) {
  const SnapshotSeries series = StableSeries(4);
  const std::string dir = FreshStateDir("pipe_foreign");
  ASSERT_TRUE(RunPipeline(network_, series, BaseOptions(dir)).ok());

  // Different densities: snapshot 0's features are part of the pipeline
  // key, so the journal reads as someone else's history and is rejected
  // with a warning — a cold restart, never an error.
  const SnapshotSeries other = StableSeries(4, /*seed=*/77);
  auto rerun = RunPipeline(network_, other, BaseOptions(dir));
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->stats.resumed, 0);
  bool warned = false;
  for (const std::string& w : rerun->warnings) {
    warned |= w.find("pipeline journal not adopted") != std::string::npos;
  }
  EXPECT_TRUE(warned);

  // Same snapshot 0 (same key) but tampered later snapshots: the journal is
  // adopted past the key check, then the per-interval input fingerprints
  // expose the substitution.
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(RunPipeline(network_, series, BaseOptions(dir)).ok());
  SnapshotSeries tampered(network_.num_segments());
  ASSERT_TRUE(tampered.Append(series.timestamp(0), series.densities(0)).ok());
  for (int t = 1; t < 4; ++t) {
    ASSERT_TRUE(
        tampered.Append(series.timestamp(t), other.densities(t)).ok());
  }
  auto rerun2 = RunPipeline(network_, tampered, BaseOptions(dir));
  ASSERT_TRUE(rerun2.ok());
  EXPECT_EQ(rerun2->stats.resumed, 0);
  warned = false;
  for (const std::string& w : rerun2->warnings) {
    warned |= w.find("fingerprint disagrees") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

// --- Failure containment ----------------------------------------------------

TEST_F(PipelineFixture, PoisonedSnapshotQuarantinesOnlyThatInterval) {
  // Snapshot 2 carries a NaN density (a dead sensor); Append admits it (it
  // only rejects negatives) and the pipeline's kReject sanitizer must catch
  // it before the engine sees it.
  SnapshotSeries series = StableSeries(5);
  SnapshotSeries poisoned(network_.num_segments());
  for (int t = 0; t < 5; ++t) {
    std::vector<double> densities = series.densities(t);
    if (t == 2) densities[3] = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(poisoned.Append(series.timestamp(t), densities).ok());
  }

  ServeRuntime serve;
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_nan"));
  options.serve = &serve;
  auto result = RunPipeline(network_, poisoned, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stats.published, 4);
  EXPECT_EQ(result->stats.quarantined, 1);
  const PipelineJournalEntry& bad = result->journal.entries[2];
  EXPECT_EQ(bad.outcome, PipelineIntervalOutcome::kQuarantined);
  EXPECT_EQ(bad.reason, "invalid-argument");
  EXPECT_FALSE(bad.refreshed);  // rejected before the engine mutated state
  EXPECT_EQ(bad.staleness, 1);
  EXPECT_EQ(bad.snapshot_path, "-");
  // The quarantined interval repeats the served baseline's quality.
  EXPECT_EQ(bad.ans, result->journal.entries[1].ans);
  // Interval 3 recovers and the staleness counter resets.
  EXPECT_EQ(result->journal.entries[3].outcome,
            PipelineIntervalOutcome::kPublished);
  EXPECT_EQ(result->journal.entries[3].staleness, 0);

  // Serving: 4 published snapshots hot-swapped in, none refused.
  EXPECT_EQ(serve.snapshot_manager().diagnostics().version, 4);
  EXPECT_EQ(serve.snapshot_manager().diagnostics().reloads_failed, 0);
}

TEST_F(PipelineFixture, ExpiredDeadlineQuarantinesEveryDirtyInterval) {
  const SnapshotSeries series = StableSeries(4);
  // Preload serving with a snapshot so "stays on snapshot 0" is observable.
  std::vector<int> labels(static_cast<size_t>(network_.num_segments()));
  for (size_t s = 0; s < labels.size(); ++s) labels[s] = s % 2;
  auto snap0 = Snapshot::Build(network_, labels);
  ASSERT_TRUE(snap0.ok());
  const std::string snap0_path = TempPath("pipe_deadline_snap0.rpsnap");
  ASSERT_TRUE(snap0->Save(snap0_path).ok());

  ServeRuntime serve;
  ASSERT_TRUE(serve.LoadSnapshot(snap0_path).ok());
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_deadline"));
  options.serve = &serve;
  // An impossible region re-cut budget: every dirty region overruns, is
  // kept whole, and the interval must quarantine — not error the run.
  options.driver.refresh.partitioner.deadline_seconds = 1e-9;
  options.driver.refresh.trigger_ratio = 0.0;  // every region dirty
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stats.quarantined, 4);
  EXPECT_EQ(result->stats.published, 0);
  EXPECT_EQ(result->stats.staleness, 4);
  for (const PipelineJournalEntry& e : result->journal.entries) {
    EXPECT_EQ(e.outcome, PipelineIntervalOutcome::kQuarantined);
    EXPECT_EQ(e.reason, "deadline-exceeded");
    EXPECT_TRUE(e.refreshed);  // the engine ran; its output was not adopted
  }
  EXPECT_EQ(result->last_published_path, "-");

  // All-intervals-quarantined: serving never moved off the preloaded
  // snapshot, and `!health` names the typed reason.
  EXPECT_EQ(serve.snapshot_manager().diagnostics().version, 1);
  auto out = serve.RunSession("!health\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out,
            "health version=1 staleness=4 reloads_failed=0 "
            "last_error=deadline-exceeded\n");
}

TEST_F(PipelineFixture, InjectedQuarantineAndGateRejectSites) {
  const SnapshotSeries series = StableSeries(4);
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_sites"));
  int armed_gate = 0;
  FaultInjector injector(21);
  ScopedFaultInjector scoped(&injector);
  options.before_interval = [&](int t) {
    if (t == 1) injector.Arm(FaultSite::kPipelineQuarantinedInterval, 1);
    if (t == 2) {
      injector.Arm(FaultSite::kPipelinePublishGateReject, 1);
      ++armed_gate;
    }
  };
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(armed_gate, 1);

  const auto& entries = result->journal.entries;
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].outcome, PipelineIntervalOutcome::kPublished);
  EXPECT_EQ(entries[1].outcome, PipelineIntervalOutcome::kQuarantined);
  EXPECT_EQ(entries[1].reason, "pipeline-quarantined-interval");
  EXPECT_FALSE(entries[1].refreshed);
  EXPECT_EQ(entries[2].outcome, PipelineIntervalOutcome::kDegraded);
  EXPECT_EQ(entries[2].reason, "pipeline-publish-gate-reject");
  EXPECT_TRUE(entries[2].refreshed);
  EXPECT_EQ(entries[2].staleness, 2);  // quarantine + gate reject
  EXPECT_EQ(entries[3].outcome, PipelineIntervalOutcome::kPublished);
  EXPECT_EQ(entries[3].staleness, 0);
  EXPECT_EQ(injector.fire_count(FaultSite::kPipelineQuarantinedInterval), 1);
  EXPECT_EQ(injector.fire_count(FaultSite::kPipelinePublishGateReject), 1);
}

TEST_F(PipelineFixture, AnsFloorGateRecordsDegradedIntervals) {
  const SnapshotSeries series = StableSeries(4);
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_ansgate"));
  // A margin no refresh can meet: the first interval publishes (there is no
  // baseline yet), every later one regresses past the impossible floor.
  options.ans_margin = -1e9;
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stats.published, 1);
  EXPECT_EQ(result->stats.degraded, 3);
  EXPECT_EQ(result->stats.staleness, 3);
  for (size_t i = 1; i < result->journal.entries.size(); ++i) {
    const PipelineJournalEntry& e = result->journal.entries[i];
    EXPECT_EQ(e.outcome, PipelineIntervalOutcome::kDegraded);
    EXPECT_EQ(e.reason, "ans-regression");
    EXPECT_TRUE(e.refreshed);  // the refresh was adopted, just not published
    EXPECT_EQ(e.staleness, static_cast<int64_t>(i));
  }
  // The baseline is the FIRST (only published) interval's quality.
  EXPECT_EQ(result->journal.last_published_ans,
            result->journal.entries[0].ans);
  EXPECT_EQ(result->last_published_path,
            result->journal.entries[0].snapshot_path);
}

TEST_F(PipelineFixture, ChurnCeilingGateRecordsDegradedIntervals) {
  // A regime flip mid-series: labels move when the hotspot geometry jumps.
  const SnapshotSeries stable = StableSeries(6);
  const SnapshotSeries other = StableSeries(6, /*seed=*/77);
  SnapshotSeries series(network_.num_segments());
  for (int t = 0; t < 6; ++t) {
    const SnapshotSeries& source = t < 3 ? stable : other;
    ASSERT_TRUE(
        series.Append(stable.timestamp(t), source.densities(t)).ok());
  }
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_churngate"));
  options.driver.refresh.trigger_ratio = 0.0;  // re-cut every interval
  options.churn_ceiling = 1e-12;               // any label movement trips
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int churn_degraded = 0;
  for (const PipelineJournalEntry& e : result->journal.entries) {
    if (e.reason == "churn-ceiling") {
      ++churn_degraded;
      EXPECT_EQ(e.outcome, PipelineIntervalOutcome::kDegraded);
      EXPECT_GT(e.churn, 0.0);
    }
  }
  EXPECT_GT(churn_degraded, 0);
  EXPECT_EQ(result->stats.degraded, churn_degraded);
}

// --- Degenerate inputs ------------------------------------------------------

TEST_F(PipelineFixture, SingleSnapshotSeriesPublishesOnce) {
  const SnapshotSeries series = StableSeries(1);
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_single"));
  auto result = RunPipeline(network_, series, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.intervals, 1);
  EXPECT_EQ(result->stats.published, 1);
  EXPECT_NE(result->last_published_path, "-");

  // Resuming a fully-journaled series is a no-op with the same journal.
  const std::string bytes = ReadAll(result->journal_path);
  auto rerun = RunPipeline(network_, series, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->stats.resumed, 1);
  EXPECT_EQ(rerun->stats.intervals, 1);
  EXPECT_EQ(ReadAll(rerun->journal_path), bytes);
}

TEST_F(PipelineFixture, InvalidInputsAreTypedErrors) {
  const SnapshotSeries series = StableSeries(2);
  {
    PipelineOptions options = BaseOptions("");
    EXPECT_EQ(RunPipeline(network_, series, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineOptions options = BaseOptions(FreshStateDir("pipe_bad"));
    SnapshotSeries wrong(network_.num_segments() + 1);
    ASSERT_TRUE(
        wrong
            .Append(0.0, std::vector<double>(network_.num_segments() + 1, 1.0))
            .ok());
    EXPECT_EQ(RunPipeline(network_, wrong, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineOptions options = BaseOptions(FreshStateDir("pipe_bad2"));
    EXPECT_EQ(RunPipeline(network_, SnapshotSeries(network_.num_segments()),
                          options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {
    PipelineOptions options = BaseOptions(FreshStateDir("pipe_bad3"));
    options.max_refresh_attempts = 0;
    EXPECT_EQ(RunPipeline(network_, series, options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// --- Serving integration ----------------------------------------------------

TEST_F(PipelineFixture, StatsAndHealthSurfacePipelineState) {
  SnapshotSeries series = StableSeries(4);
  SnapshotSeries poisoned(network_.num_segments());
  for (int t = 0; t < 4; ++t) {
    std::vector<double> densities = series.densities(t);
    if (t == 3) densities[0] = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(poisoned.Append(series.timestamp(t), densities).ok());
  }

  ServeRuntime serve;
  PipelineOptions options = BaseOptions(FreshStateDir("pipe_health"));
  options.serve = &serve;
  auto result = RunPipeline(network_, poisoned, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.published, 3);
  EXPECT_EQ(result->stats.quarantined, 1);

  // Exact session lines: the attached pipeline extends `!stats` and
  // `!health` reports the last typed reason with the current staleness.
  auto out = serve.RunSession("!stats\n!health\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out,
            "stats version=3 served=0 errored=0 shed=0 reloads_ok=3 "
            "reloads_failed=0 pipeline_published=3 pipeline_degraded=0 "
            "pipeline_quarantined=1 pipeline_staleness=1\n"
            "health version=3 staleness=1 reloads_failed=0 "
            "last_error=invalid-argument\n");

  // A resumed process re-serves the last published snapshot and re-attaches
  // the journal's aggregate health.
  ServeRuntime fresh;
  auto rerun = RunPipeline(network_, poisoned, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->stats.resumed, 4);
  // (options still points serve at the first runtime; attach a fresh one.)
  PipelineOptions resumed_options = options;
  resumed_options.serve = &fresh;
  auto rerun2 = RunPipeline(network_, poisoned, resumed_options);
  ASSERT_TRUE(rerun2.ok());
  auto health = fresh.RunSession("!health\n");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health,
            "health version=1 staleness=1 reloads_failed=0 "
            "last_error=invalid-argument\n");
}

}  // namespace
}  // namespace roadpart
