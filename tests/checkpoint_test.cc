// Suite for the stage-level checkpoint/resume layer (core/checkpoint.h):
// bit-exact stage codecs, the manifest-keyed store policies (mismatch and
// corruption degrade to recompute-with-warning, never failure), and the
// end-to-end guarantee that a resumed Partitioner run is bit-identical to an
// uninterrupted one — across stages, thread counts, and schemes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectEigenEqual(const EigenSolveDiagnostics& a,
                      const EigenSolveDiagnostics& b) {
  EXPECT_EQ(a.solver_path, b.solver_path);
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.lanczos_restarts, b.lanczos_restarts);
  EXPECT_TRUE(BitEqual(a.worst_ritz_residual, b.worst_ritz_residual));
  EXPECT_EQ(a.all_converged, b.all_converged);
}

TEST(CheckpointStageTest, NamesRoundTrip) {
  for (CheckpointStage stage : {CheckpointStage::kMining, CheckpointStage::kCut,
                                CheckpointStage::kFinal}) {
    auto parsed = ParseCheckpointStage(CheckpointStageName(stage));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, stage);
  }
  EXPECT_FALSE(ParseCheckpointStage("bogus").ok());
}

TEST(CheckpointTest, FingerprintTracksGraphContents) {
  auto net = GenerateDataset(DatasetPreset::kD1, 5);
  ASSERT_TRUE(net.ok());
  RoadGraph a = RoadGraph::FromNetwork(*net);
  RoadGraph b = RoadGraph::FromNetwork(*net);
  EXPECT_EQ(FingerprintRoadGraph(a), FingerprintRoadGraph(b));

  std::vector<double> densities(net->num_segments(), 0.5);
  densities[0] = 0.75;
  ASSERT_TRUE(net->SetDensities(densities).ok());
  RoadGraph c = RoadGraph::FromNetwork(*net);
  EXPECT_NE(FingerprintRoadGraph(a), FingerprintRoadGraph(c));
}

TEST(CheckpointTest, CanonicalOptionsStringIgnoresPureKnobs) {
  PartitionerOptions a;
  PartitionerOptions b = a;
  b.num_threads = 7;
  b.deadline_seconds = 99.0;
  b.checkpoint.dir = "/somewhere/else";
  b.checkpoint.resume = true;
  EXPECT_EQ(CanonicalOptionsString(a), CanonicalOptionsString(b));

  PartitionerOptions c = a;
  c.k = a.k + 1;
  EXPECT_NE(CanonicalOptionsString(a), CanonicalOptionsString(c));
  PartitionerOptions d = a;
  d.seed = a.seed + 1;
  EXPECT_NE(CanonicalOptionsString(a), CanonicalOptionsString(d));
}

// --- Stage codecs ---

GraphCutResult SampleCut() {
  GraphCutResult cut;
  cut.assignment = {0, 2, 1, 1, 0, 3};
  cut.k_final = 4;
  cut.k_prime = 5;
  cut.objective = 1.0 / 3.0;
  cut.eigen.solver_path = SolverPath::kLanczosRetry;
  cut.eigen.solves = 3;
  cut.eigen.lanczos_restarts = 7;
  cut.eigen.worst_ritz_residual = 2.4061e-15;
  cut.eigen.all_converged = false;
  return cut;
}

PartitionOutcome SampleFinal() {
  PartitionOutcome fin;
  fin.assignment = {1, 0, 0, 2};
  fin.k_final = 3;
  fin.k_prime = 3;
  fin.num_supernodes = 17;
  fin.objective = -0.0;  // sign of zero must survive
  fin.module2_seconds = 0.123456789123456789;
  fin.module3_seconds = 1e-308;  // denormal-adjacent must survive
  fin.diagnostics.eigen.solver_path = SolverPath::kDense;
  fin.diagnostics.eigen.solves = 4;
  fin.diagnostics.eigen.all_converged = true;
  return fin;
}

// Three supernodes over five road nodes, linked 0-1-2.
MiningCheckpoint SampleMining() {
  MiningCheckpoint mining;
  mining.num_supernodes = 3;
  mining.module2_seconds = 0.0421;
  SupergraphMiningReport& report = mining.report;
  report.kappas = {2, 3};
  report.mcg = {0.5, 0.75};
  report.shortlisted_kappas = {3};
  report.component_counts = {3};
  report.threshold = 0.625;
  report.effective_max_kappa = 3;
  report.chosen_kappa = 3;
  report.supernodes_before_stability = 3;
  report.supernodes_after_stability = 3;
  report.stability_values = {1.0, 0.5, 1.0};
  report.sweep_seconds = 0.001;
  report.cluster_seconds = 0.002;
  report.superlink_seconds = 0.004;
  std::vector<Supernode> supernodes = {
      {{0, 1}, 0.25}, {{2}, 0.5}, {{3, 4}, 0.75}};
  CsrGraph links = CsrGraph::FromRawParts(3, {0, 1, 3, 4}, {1, 0, 2, 1},
                                          {0.5, 0.5, 0.125, 0.125});
  mining.supergraph =
      Supergraph::Create(std::move(supernodes), std::move(links), 5).value();
  return mining;
}

TEST(CheckpointCodecTest, CutRoundTripIsBitExact) {
  const GraphCutResult cut = SampleCut();
  auto back = DecodeCutCheckpoint(EncodeCutCheckpoint(cut));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->assignment, cut.assignment);
  EXPECT_EQ(back->k_final, cut.k_final);
  EXPECT_EQ(back->k_prime, cut.k_prime);
  EXPECT_TRUE(BitEqual(back->objective, cut.objective));
  ExpectEigenEqual(back->eigen, cut.eigen);
}

TEST(CheckpointCodecTest, FinalRoundTripIsBitExact) {
  PartitionOutcome fin = SampleFinal();
  // Fields outside the stage payload must not leak into it.
  fin.module1_seconds = 2.5;
  fin.mining_report.chosen_kappa = 9;
  fin.diagnostics.warnings.push_back("not stored");
  auto back = DecodeFinalCheckpoint(EncodeFinalCheckpoint(fin));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->assignment, fin.assignment);
  EXPECT_EQ(back->k_final, fin.k_final);
  EXPECT_EQ(back->k_prime, fin.k_prime);
  EXPECT_EQ(back->num_supernodes, fin.num_supernodes);
  EXPECT_TRUE(BitEqual(back->objective, fin.objective));
  EXPECT_TRUE(BitEqual(back->module2_seconds, fin.module2_seconds));
  EXPECT_TRUE(BitEqual(back->module3_seconds, fin.module3_seconds));
  ExpectEigenEqual(back->diagnostics.eigen, fin.diagnostics.eigen);
  EXPECT_EQ(back->module1_seconds, 0.0);
  EXPECT_EQ(back->mining_report.chosen_kappa, 0);
  EXPECT_TRUE(back->diagnostics.warnings.empty());
  EXPECT_EQ(EncodeFinalCheckpoint(*back), EncodeFinalCheckpoint(SampleFinal()));
}

TEST(CheckpointCodecTest, MiningRoundTripReproducesSupergraphExactly) {
  auto net = GenerateDataset(DatasetPreset::kD1, 5);
  ASSERT_TRUE(net.ok());
  RoadGraph rg = RoadGraph::FromNetwork(*net);
  MiningCheckpoint mining;
  mining.roadgraph_fallback = false;
  mining.module2_seconds = 0.0421;
  auto sg = MineSupergraph(rg, {}, &mining.report);
  ASSERT_TRUE(sg.ok());
  mining.num_supernodes = sg->num_supernodes();
  mining.supergraph = *sg;

  auto back = DecodeMiningCheckpoint(EncodeMiningCheckpoint(mining));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->roadgraph_fallback, mining.roadgraph_fallback);
  EXPECT_EQ(back->num_supernodes, mining.num_supernodes);
  EXPECT_TRUE(BitEqual(back->module2_seconds, mining.module2_seconds));
  EXPECT_EQ(back->report.kappas, mining.report.kappas);
  EXPECT_EQ(back->report.shortlisted_kappas,
            mining.report.shortlisted_kappas);
  EXPECT_EQ(back->report.chosen_kappa, mining.report.chosen_kappa);
  ASSERT_EQ(back->report.mcg.size(), mining.report.mcg.size());
  for (size_t i = 0; i < mining.report.mcg.size(); ++i) {
    EXPECT_TRUE(BitEqual(back->report.mcg[i], mining.report.mcg[i]));
  }
  ASSERT_EQ(back->report.stability_values.size(),
            mining.report.stability_values.size());
  for (size_t i = 0; i < mining.report.stability_values.size(); ++i) {
    EXPECT_TRUE(BitEqual(back->report.stability_values[i],
                         mining.report.stability_values[i]));
  }

  ASSERT_TRUE(back->supergraph.has_value());
  const Supergraph& restored = *back->supergraph;
  ASSERT_EQ(restored.num_supernodes(), sg->num_supernodes());
  EXPECT_EQ(restored.num_road_nodes(), sg->num_road_nodes());
  for (int s = 0; s < sg->num_supernodes(); ++s) {
    EXPECT_EQ(restored.supernode(s).members, sg->supernode(s).members);
    EXPECT_TRUE(
        BitEqual(restored.supernode(s).feature, sg->supernode(s).feature));
  }
  EXPECT_EQ(restored.links().offsets(), sg->links().offsets());
  EXPECT_EQ(restored.links().neighbors(), sg->links().neighbors());
  ASSERT_EQ(restored.links().weights().size(), sg->links().weights().size());
  for (size_t i = 0; i < sg->links().weights().size(); ++i) {
    EXPECT_TRUE(
        BitEqual(restored.links().weights()[i], sg->links().weights()[i]));
  }
}

// The on-disk stage format is pinned byte for byte: a codec change that
// alters these bytes strands every checkpoint written before it.
TEST(CheckpointCodecTest, PayloadBytesArePinned) {
  EXPECT_EQ(EncodeCutCheckpoint(SampleCut()),
            "k-final 4\n"
            "k-prime 5\n"
            "objective 3fd5555555555555\n"
            "eigen 3 3 7 3ce5ac16bfd2646e 0\n"
            "assignment 6 0 2 1 1 0 3\n");
  EXPECT_EQ(EncodeFinalCheckpoint(SampleFinal()),
            "k-final 3\n"
            "k-prime 3\n"
            "supernodes 17\n"
            "objective 8000000000000000\n"
            "module2 3fbf9add37c1215e\n"
            "module3 000730d67819e8d2\n"
            "eigen 1 4 0 0000000000000000 1\n"
            "assignment 4 1 0 0 2\n");
  const std::string report_lines =
      "supernodes 3\n"
      "module2 3fa58e219652bd3c\n"
      "threshold 3fe4000000000000\n"
      "sweep-shape 3 3 3 3\n"
      "phase-seconds 3f50624dd2f1a9fc 3f60624dd2f1a9fc 3f70624dd2f1a9fc\n"
      "kappas 2 2 3\n"
      "mcg 2 3fe0000000000000 3fe8000000000000\n"
      "shortlisted 1 3\n"
      "components 1 3\n"
      "stability-values 3 3ff0000000000000 3fe0000000000000 "
      "3ff0000000000000\n";
  const MiningCheckpoint mining = SampleMining();
  const std::string encoded = EncodeMiningCheckpoint(mining);
  EXPECT_EQ(encoded,
            "fallback 0\n" + report_lines +
                "supergraph 5 3\n"
                "sn 3fd0000000000000 2 0 1\n"
                "sn 3fe0000000000000 1 2\n"
                "sn 3fe8000000000000 2 3 4\n"
                "links 3\n"
                "offsets 4 0 1 3 4\n"
                "neighbors 4 1 0 2 1\n"
                "weights 4 3fe0000000000000 3fe0000000000000 "
                "3fc0000000000000 3fc0000000000000\n");
  auto back = DecodeMiningCheckpoint(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeMiningCheckpoint(*back), encoded);

  MiningCheckpoint fallback = mining;
  fallback.roadgraph_fallback = true;
  fallback.supergraph.reset();
  EXPECT_EQ(EncodeMiningCheckpoint(fallback), "fallback 1\n" + report_lines);
}

TEST(CheckpointCodecTest, GarbageDecodesAsCorruption) {
  EXPECT_EQ(DecodeCutCheckpoint("").status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeCutCheckpoint("nonsense 1 2 3\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeMiningCheckpoint("fallback maybe\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeFinalCheckpoint("k-final notanint\n").status().code(),
            StatusCode::kCorruption);
  // Doubles are always written as 16 hex digits; a shorter field is torn.
  std::string torn = EncodeCutCheckpoint(SampleCut());
  torn.replace(torn.find("3fd5555555555555"), 16, "3fd5");
  EXPECT_EQ(DecodeCutCheckpoint(torn).status().code(), StatusCode::kCorruption);
}

// --- Store policies ---

TEST(CheckpointStoreTest, SaveThenResumeServesPayload) {
  CheckpointOptions options;
  options.dir = FreshDir("store_roundtrip");
  RunManifest manifest{0x1234, 0x5678};

  CheckpointStore writer(options, manifest);
  ASSERT_TRUE(writer.Initialize().ok());
  EXPECT_FALSE(writer.resuming());
  EXPECT_FALSE(writer.LoadStage(CheckpointStage::kMining).has_value());
  ASSERT_TRUE(
      writer.SaveStage(CheckpointStage::kMining, "stage payload\n").ok());

  options.resume = true;
  CheckpointStore reader(options, manifest);
  ASSERT_TRUE(reader.Initialize().ok());
  EXPECT_TRUE(reader.resuming());
  auto payload = reader.LoadStage(CheckpointStage::kMining);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "stage payload\n");
  EXPECT_TRUE(reader.warnings().empty());
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, ManifestMismatchInvalidatesStaleStages) {
  CheckpointOptions options;
  options.dir = FreshDir("store_mismatch");
  CheckpointStore writer(options, RunManifest{1, 2});
  ASSERT_TRUE(writer.Initialize().ok());
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kCut, "stale\n").ok());

  options.resume = true;
  CheckpointStore reader(options, RunManifest{1, 3});  // options changed
  ASSERT_TRUE(reader.Initialize().ok());
  EXPECT_FALSE(reader.resuming());
  EXPECT_FALSE(reader.LoadStage(CheckpointStage::kCut).has_value());
  EXPECT_FALSE(reader.warnings().empty());
  // The stale stage file must be gone, not waiting to ambush a later run.
  EXPECT_FALSE(std::filesystem::exists(reader.StagePath(CheckpointStage::kCut)));
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, WithoutResumeDirIsReinitialized) {
  CheckpointOptions options;
  options.dir = FreshDir("store_noresume");
  RunManifest manifest{7, 8};
  CheckpointStore writer(options, manifest);
  ASSERT_TRUE(writer.Initialize().ok());
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kFinal, "old run\n").ok());

  CheckpointStore fresh(options, manifest);  // resume not requested
  ASSERT_TRUE(fresh.Initialize().ok());
  EXPECT_FALSE(fresh.resuming());
  EXPECT_FALSE(fresh.LoadStage(CheckpointStage::kFinal).has_value());
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, CorruptStageFileDegradesToRecompute) {
  CheckpointOptions options;
  options.dir = FreshDir("store_corrupt");
  RunManifest manifest{42, 43};
  CheckpointStore writer(options, manifest);
  ASSERT_TRUE(writer.Initialize().ok());
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kMining, "good bytes\n").ok());

  // Flip one byte of the stage artifact on disk.
  std::string stage_path = writer.StagePath(CheckpointStage::kMining);
  auto bytes = ReadFileBytes(stage_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(stage_path, mutated).ok());

  options.resume = true;
  CheckpointStore reader(options, manifest);
  ASSERT_TRUE(reader.Initialize().ok());
  EXPECT_TRUE(reader.resuming());
  EXPECT_FALSE(reader.LoadStage(CheckpointStage::kMining).has_value());
  EXPECT_FALSE(reader.warnings().empty());  // degradation is reported
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, ManifestBytesArePinned) {
  CheckpointOptions options;
  options.dir = FreshDir("store_manifest_bytes");
  CheckpointStore store(options, RunManifest{0x1234, 0x5678});
  ASSERT_TRUE(store.Initialize().ok());
  auto payload = ReadArtifact(store.ManifestPath());
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(*payload,
            "input 0000000000001234\n"
            "options 0000000000005678\n");
  std::filesystem::remove_all(options.dir);
}

// A mining stage whose envelope and sizes are intact but whose superlink
// arrays are not an undirected graph — an asymmetric weight, a one-way
// link, a neighbor out of range — decodes as Corruption in every build type
// instead of reaching the graph's debug-only audit.
TEST(CheckpointStoreTest, MalformedSuperlinksInValidEnvelopeAreCorruption) {
  const std::string good = EncodeMiningCheckpoint(SampleMining());
  const std::string neighbors = "neighbors 4 1 0 2 1\n";
  const std::string weights =
      "weights 4 3fe0000000000000 3fe0000000000000 3fc0000000000000 "
      "3fc0000000000000\n";
  ASSERT_NE(good.find(neighbors), std::string::npos);
  ASSERT_NE(good.find(weights), std::string::npos);
  auto edit = [&](const std::string& from, const std::string& to) {
    std::string payload = good;
    payload.replace(payload.find(from), from.size(), to);
    return payload;
  };
  const std::vector<std::string> malformed = {
      edit(weights,
           "weights 4 3fe0000000000000 3fd0000000000000 3fc0000000000000 "
           "3fc0000000000000\n"),
      edit(neighbors, "neighbors 4 1 0 2 0\n"),
      edit(neighbors, "neighbors 4 1 0 2 7\n"),
  };
  CheckpointOptions options;
  options.dir = FreshDir("store_malformed_links");
  const RunManifest manifest{0x1234, 0x5678};
  for (const std::string& payload : malformed) {
    CheckpointStore writer(options, manifest);
    ASSERT_TRUE(writer.Initialize().ok());
    ASSERT_TRUE(writer.SaveStage(CheckpointStage::kMining, payload).ok());
    CheckpointOptions resume = options;
    resume.resume = true;
    CheckpointStore reader(resume, manifest);
    ASSERT_TRUE(reader.Initialize().ok());
    auto stage = reader.LoadStage(CheckpointStage::kMining);
    ASSERT_TRUE(stage.has_value());
    EXPECT_EQ(DecodeMiningCheckpoint(*stage).status().code(),
              StatusCode::kCorruption);
  }
  std::filesystem::remove_all(options.dir);
}

// Trailing data inside an intact envelope is corruption, not slack: extra
// fields on a line and junk lines after the last record are both refused.
TEST(CheckpointStoreTest, TrailingDataInValidEnvelopeIsCorruption) {
  CheckpointOptions options;
  options.dir = FreshDir("store_trailing");
  const RunManifest manifest{0x1234, 0x5678};
  CheckpointStore writer(options, manifest);
  ASSERT_TRUE(writer.Initialize().ok());
  const std::string cut = EncodeCutCheckpoint(SampleCut());
  const std::string final_payload = EncodeFinalCheckpoint(SampleFinal());
  ASSERT_TRUE(WriteArtifact(writer.StagePath(CheckpointStage::kCut),
                            "checkpoint-cut", 1,
                            "k-final 4 99\n" + cut.substr(cut.find('\n') + 1) +
                                "junk line\n")
                  .ok());
  ASSERT_TRUE(WriteArtifact(writer.StagePath(CheckpointStage::kFinal),
                            "checkpoint-final", 1, final_payload + "junk\n")
                  .ok());

  options.resume = true;
  CheckpointStore reader(options, manifest);
  ASSERT_TRUE(reader.Initialize().ok());
  ASSERT_TRUE(reader.resuming());
  auto cut_payload = reader.LoadStage(CheckpointStage::kCut);
  ASSERT_TRUE(cut_payload.has_value());
  EXPECT_EQ(DecodeCutCheckpoint(*cut_payload).status().code(),
            StatusCode::kCorruption);
  auto final_stage = reader.LoadStage(CheckpointStage::kFinal);
  ASSERT_TRUE(final_stage.has_value());
  EXPECT_EQ(DecodeFinalCheckpoint(*final_stage).status().code(),
            StatusCode::kCorruption);
  const std::string mining = EncodeMiningCheckpoint(SampleMining());
  EXPECT_EQ(DecodeMiningCheckpoint(mining + "sn 3fd0000000000000 0\n")
                .status()
                .code(),
            StatusCode::kCorruption);

  // A manifest with a junk line after its two fields fails verification
  // instead of reading as a different run.
  ASSERT_TRUE(WriteArtifact(reader.ManifestPath(), "checkpoint-manifest", 1,
                            "input 0000000000001234\n"
                            "options 0000000000005678\n"
                            "junk\n")
                  .ok());
  CheckpointStore junk(options, manifest);
  ASSERT_TRUE(junk.Initialize().ok());
  EXPECT_FALSE(junk.resuming());
  ASSERT_EQ(junk.warnings().size(), 1u);
  EXPECT_NE(junk.warnings()[0].find("failed verification"), std::string::npos)
      << junk.warnings()[0];
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, DisabledStoreIsInert) {
  CheckpointStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.LoadStage(CheckpointStage::kMining).has_value());
  EXPECT_TRUE(store.SaveStage(CheckpointStage::kMining, "ignored").ok());
}

// --- End-to-end resume == fresh ---

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto net = GenerateDataset(DatasetPreset::kD1, 5);
    ASSERT_TRUE(net.ok());
    graph_ = RoadGraph::FromNetwork(*net);
  }

  PartitionerOptions BaseOptions(Scheme scheme, const std::string& dir) {
    PartitionerOptions options;
    options.scheme = scheme;
    options.k = 4;
    options.seed = 11;
    options.checkpoint.dir = dir;
    return options;
  }

  RoadGraph graph_;
};

// Every scheme, resumed from 'final' and from 'cut' (the 'final' stage
// deleted, so the stored cut is refined and adopted again), with refinement
// on and off where it changes the module-3 path.
TEST_F(CheckpointResumeTest, ResumeReproducesFreshRunBitExactly) {
  struct Case {
    Scheme scheme;
    bool refine;
  };
  const Case cases[] = {{Scheme::kAG, false},  {Scheme::kAG, true},
                        {Scheme::kASG, false}, {Scheme::kASG, true},
                        {Scheme::kNG, false},  {Scheme::kNSG, false},
                        {Scheme::kJiGeroliminis, false}};
  for (const Case& c : cases) {
    for (const std::string from : {"final", "cut"}) {
      SCOPED_TRACE(std::string(SchemeName(c.scheme)) +
                   (c.refine ? " refine" : "") + " from " + from);
      const std::string dir = FreshDir("resume_matrix");
      PartitionerOptions options = BaseOptions(c.scheme, dir);
      options.refine_boundary = c.refine;

      auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      if (from == "cut") {
        // JiGeroliminis has no 'cut' stage; its resume recomputes module 3.
        EXPECT_EQ(std::filesystem::exists(dir + "/stage-cut.rpcp"),
                  c.scheme != Scheme::kJiGeroliminis);
        ASSERT_TRUE(std::filesystem::remove(dir + "/stage-final.rpcp"));
      }

      options.checkpoint.resume = true;
      options.num_threads = 3;  // thread count must not affect the result
      auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

      EXPECT_EQ(resumed->assignment, fresh->assignment);
      EXPECT_EQ(resumed->k_final, fresh->k_final);
      EXPECT_EQ(resumed->k_prime, fresh->k_prime);
      EXPECT_EQ(resumed->num_supernodes, fresh->num_supernodes);
      EXPECT_TRUE(BitEqual(resumed->objective, fresh->objective));
      ExpectEigenEqual(resumed->diagnostics.eigen, fresh->diagnostics.eigen);
      EXPECT_EQ(resumed->diagnostics.warnings, fresh->diagnostics.warnings);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST_F(CheckpointResumeTest, PartialCheckpointsResumeMidPipeline) {
  std::string dir = FreshDir("resume_partial");
  PartitionerOptions options = BaseOptions(Scheme::kASG, dir);

  auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(fresh.ok());

  // Simulate a crash between 'cut' and 'final': delete the later stages and
  // resume with only the mining checkpoint surviving.
  std::filesystem::remove(dir + "/stage-cut.rpcp");
  std::filesystem::remove(dir + "/stage-final.rpcp");
  options.checkpoint.resume = true;
  auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->assignment, fresh->assignment);
  EXPECT_TRUE(BitEqual(resumed->objective, fresh->objective));
  std::filesystem::remove_all(dir);
}

TEST_F(CheckpointResumeTest, ChangedOptionsInvalidateAndRecompute) {
  std::string dir = FreshDir("resume_invalidate");
  PartitionerOptions options = BaseOptions(Scheme::kASG, dir);
  auto first = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(first.ok());

  options.k = 5;  // output-affecting change: stored stages must not be used
  options.checkpoint.resume = true;
  auto second = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->k_final, 5);
  // The mismatch is surfaced as a warning, not silently absorbed.
  bool warned = false;
  for (const std::string& w : second->diagnostics.warnings) {
    if (w.find("checkpoint") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);

  // And the uncheckpointed ground truth agrees with the recomputed run.
  PartitionerOptions plain = options;
  plain.checkpoint = CheckpointOptions{};
  auto ground = Partitioner(plain).PartitionRoadGraph(graph_);
  ASSERT_TRUE(ground.ok());
  EXPECT_EQ(second->assignment, ground->assignment);
  std::filesystem::remove_all(dir);
}

TEST_F(CheckpointResumeTest, CorruptStageRecomputesIdenticalResult) {
  std::string dir = FreshDir("resume_corrupt_stage");
  PartitionerOptions options = BaseOptions(Scheme::kASG, dir);
  auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(fresh.ok());

  // Corrupt the mining checkpoint and delete the downstream stages: the
  // resumed run must detect the damage, recompute, and still match.
  std::string mining_path = dir + "/stage-mining.rpcp";
  auto bytes = ReadFileBytes(mining_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 3] ^= 0x04;
  ASSERT_TRUE(AtomicWriteFile(mining_path, mutated).ok());
  std::filesystem::remove(dir + "/stage-cut.rpcp");
  std::filesystem::remove(dir + "/stage-final.rpcp");

  options.checkpoint.resume = true;
  auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->assignment, fresh->assignment);
  bool warned = false;
  for (const std::string& w : resumed->diagnostics.warnings) {
    if (w.find("recomputing") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace roadpart
