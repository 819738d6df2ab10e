// Suite for the stage-level checkpoint/resume layer (core/checkpoint.h):
// bit-exact stage codecs and their checks against the graph, the store whose
// stages each carry their run key (a foreign, keyless, corrupt or undecodable
// stage degrades to recompute-with-warning, never failure), and the
// end-to-end guarantee that a resumed Partitioner run is bit-identical to an
// uninterrupted one — across stages, thread counts, and schemes — and writes
// byte-identical stage files.

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

// Decodes a stage payload (the part after the store's key line).
Result<PartitionOutcome> DecodeFinal(const std::string& payload,
                                     int num_nodes) {
  return DecodeFinalCheckpoint(LineCursor(payload), num_nodes);
}
Result<MiningCheckpoint> DecodeMining(const std::string& payload,
                                      int num_road_nodes) {
  return DecodeMiningCheckpoint(LineCursor(payload), num_road_nodes);
}

// Rewrites a stage file's payload through `edit`, with a valid envelope of
// the same format and version: a checksum-valid stage with edited content.
template <typename Edit>
void EditStage(const std::string& path, Edit edit) {
  ArtifactInfo info;
  auto payload = ReadArtifact(path, {}, &info);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_TRUE(
      WriteArtifact(path, info.format, info.version, edit(*payload)).ok());
}

// Replaces the first label of the "assignment" line with `label`.
std::string WithFirstLabel(std::string payload, const std::string& label) {
  size_t count = payload.find("\nassignment ") + 12;
  size_t first = payload.find(' ', count) + 1;
  size_t end = payload.find_first_of(" \n", first);
  return payload.replace(first, end - first, label);
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
  for (CheckpointStage stage :
       {CheckpointStage::kMining, CheckpointStage::kFinal}) {
    auto parsed = ParseCheckpointStage(CheckpointStageName(stage));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, stage);
  }
  EXPECT_FALSE(ParseCheckpointStage("bogus").ok());
  EXPECT_FALSE(ParseCheckpointStage("cut").ok());
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

PartitionOutcome SampleFinal() {
  PartitionOutcome fin;
  fin.assignment = {1, 0, 0, 2};
  fin.k_final = 3;
  fin.k_prime = 3;
  fin.num_supernodes = 17;
  fin.objective = -0.0;  // sign of zero must survive
  fin.diagnostics.eigen.solver_path = SolverPath::kDense;
  fin.diagnostics.eigen.solves = 4;
  fin.diagnostics.eigen.lanczos_restarts = 7;
  fin.diagnostics.eigen.worst_ritz_residual = 1e-308;  // denormal-adjacent
  fin.diagnostics.eigen.all_converged = true;
  return fin;
}

// Three supernodes over five road nodes, linked 0-1-2.
MiningCheckpoint SampleMining() {
  MiningCheckpoint mining;
  mining.num_supernodes = 3;
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
  std::vector<Supernode> supernodes = {
      {{0, 1}, 0.25}, {{2}, 0.5}, {{3, 4}, 0.75}};
  CsrGraph links = CsrGraph::FromRawParts(3, {0, 1, 3, 4}, {1, 0, 2, 1},
                                          {0.5, 0.5, 0.125, 0.125});
  mining.supergraph =
      Supergraph::Create(std::move(supernodes), std::move(links), 5).value();
  return mining;
}

TEST(CheckpointCodecTest, FinalRoundTripIsBitExact) {
  PartitionOutcome fin = SampleFinal();
  // Fields outside the stage payload must not leak into it: module times
  // are wall-clock values, and a resumed run reports its own.
  fin.module1_seconds = 2.5;
  fin.module2_seconds = 0.123456789123456789;
  fin.module3_seconds = 1.5;
  fin.mining_report.chosen_kappa = 9;
  fin.diagnostics.warnings.push_back("not stored");
  auto back = DecodeFinal(EncodeFinalCheckpoint(fin), 4);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->assignment, fin.assignment);
  EXPECT_EQ(back->k_final, fin.k_final);
  EXPECT_EQ(back->k_prime, fin.k_prime);
  EXPECT_EQ(back->num_supernodes, fin.num_supernodes);
  EXPECT_TRUE(BitEqual(back->objective, fin.objective));
  ExpectEigenEqual(back->diagnostics.eigen, fin.diagnostics.eigen);
  EXPECT_EQ(back->module1_seconds, 0.0);
  EXPECT_EQ(back->module2_seconds, 0.0);
  EXPECT_EQ(back->module3_seconds, 0.0);
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
  auto sg = MineSupergraph(rg, {}, &mining.report);
  ASSERT_TRUE(sg.ok());
  mining.num_supernodes = sg->num_supernodes();
  mining.supergraph = *sg;

  auto back = DecodeMining(EncodeMiningCheckpoint(mining), rg.num_nodes());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->roadgraph_fallback, mining.roadgraph_fallback);
  EXPECT_EQ(back->num_supernodes, mining.num_supernodes);
  EXPECT_EQ(back->report.kappas, mining.report.kappas);
  EXPECT_EQ(back->report.shortlisted_kappas,
            mining.report.shortlisted_kappas);
  EXPECT_EQ(back->report.chosen_kappa, mining.report.chosen_kappa);
  // The report's phase timings are wall-clock values and are not stored.
  EXPECT_EQ(back->report.sweep_seconds, 0.0);
  EXPECT_EQ(back->report.cluster_seconds, 0.0);
  EXPECT_EQ(back->report.superlink_seconds, 0.0);
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
// alters these bytes strands every checkpoint written before it, so it must
// come with a version bump.
TEST(CheckpointCodecTest, PayloadBytesArePinned) {
  const std::string final_body =
      "k-final 3\n"
      "k-prime 3\n"
      "supernodes 17\n"
      "objective 8000000000000000\n"
      "eigen 1 4 7 000730d67819e8d2 1\n"
      "assignment 4 1 0 0 2\n";
  EXPECT_EQ(EncodeFinalCheckpoint(SampleFinal()), final_body);
  const std::string report_lines =
      "supernodes 3\n"
      "threshold 3fe4000000000000\n"
      "sweep-shape 3 3 3 3\n"
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
  auto back = DecodeMining(encoded, 5);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeMiningCheckpoint(*back), encoded);

  MiningCheckpoint fallback = mining;
  fallback.roadgraph_fallback = true;
  fallback.supergraph.reset();
  EXPECT_EQ(EncodeMiningCheckpoint(fallback), "fallback 1\n" + report_lines);

  // The store leads every stage file with its run key, in a version-2
  // envelope named after the stage.
  CheckpointOptions options;
  options.dir = FreshDir("store_pinned") + "/nested";  // created on save
  CheckpointStore store(options, 0x1234);
  ASSERT_TRUE(store.SaveStage(CheckpointStage::kFinal, final_body).ok());
  ArtifactInfo info;
  auto stored = ReadArtifact(store.StagePath(CheckpointStage::kFinal), {},
                             &info);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(info.format, "checkpoint-final");
  EXPECT_EQ(info.version, 2);
  EXPECT_EQ(*stored, "run 0000000000001234\n" + final_body);
  EXPECT_EQ(store.StagePath(CheckpointStage::kMining),
            options.dir + "/stage-mining.rpcp");
  std::filesystem::remove_all(testing::TempDir() + "/store_pinned");
}

TEST(CheckpointCodecTest, GarbageDecodesAsCorruption) {
  EXPECT_EQ(DecodeFinal("", 4).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeFinal("nonsense 1 2 3\n", 4).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeMining("fallback maybe\n", 5).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeFinal("k-final notanint\n", 4).status().code(),
            StatusCode::kCorruption);
  // Doubles are always written as 16 hex digits; a shorter field is torn.
  std::string torn = EncodeFinalCheckpoint(SampleFinal());
  torn.replace(torn.find("000730d67819e8d2"), 16, "0007");
  EXPECT_EQ(DecodeFinal(torn, 4).status().code(), StatusCode::kCorruption);
}

// A 'final' payload is served as the run's labels, so its decoder checks
// them against the graph: a wrong length, a label outside [0, k_final) or
// an unused label is Corruption in every build type.
TEST(CheckpointCodecTest, FinalLabelsAreCheckedAgainstTheGraph) {
  const std::string good = EncodeFinalCheckpoint(SampleFinal());
  ASSERT_TRUE(DecodeFinal(good, 4).ok());
  auto code = [](const Result<PartitionOutcome>& r) {
    return r.status().code();
  };
  EXPECT_EQ(code(DecodeFinal(good, 5)), StatusCode::kCorruption);
  EXPECT_EQ(code(DecodeFinal(good, 3)), StatusCode::kCorruption);
  EXPECT_EQ(code(DecodeFinal(WithFirstLabel(good, "9"), 4)),
            StatusCode::kCorruption);
  EXPECT_EQ(code(DecodeFinal(WithFirstLabel(good, "-5"), 4)),
            StatusCode::kCorruption);
  EXPECT_EQ(code(DecodeFinal(WithFirstLabel(good, "3"), 4)),
            StatusCode::kCorruption);
  // Label 1 relabelled 0 leaves partition 1 of k_final = 3 empty.
  EXPECT_EQ(code(DecodeFinal(WithFirstLabel(good, "0"), 4)),
            StatusCode::kCorruption);
  std::string k_zero = good;
  k_zero.replace(0, k_zero.find('\n'), "k-final 0");
  EXPECT_EQ(code(DecodeFinal(k_zero, 4)), StatusCode::kCorruption);
}

// A 'mining' payload's supergraph must cover this graph's road nodes and
// hold the supernode count the stage states.
TEST(CheckpointCodecTest, MiningShapeIsCheckedAgainstTheGraph) {
  const std::string good = EncodeMiningCheckpoint(SampleMining());
  ASSERT_TRUE(DecodeMining(good, 5).ok());
  EXPECT_EQ(DecodeMining(good, 6).status().code(), StatusCode::kCorruption);
  std::string miscounted = good;
  miscounted.replace(miscounted.find("supernodes 3"), 12, "supernodes 4");
  EXPECT_EQ(DecodeMining(miscounted, 5).status().code(),
            StatusCode::kCorruption);
}

// A mining stage whose envelope and sizes are intact but whose superlink
// arrays are not an undirected graph — an asymmetric weight, a one-way
// link, a neighbor out of range — decodes as Corruption in every build type
// instead of reaching the graph's debug-only audit.
TEST(CheckpointCodecTest, MalformedSuperlinksAreCorruption) {
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
  for (const std::string& payload : malformed) {
    EXPECT_EQ(DecodeMining(payload, 5).status().code(),
              StatusCode::kCorruption);
  }
}

// Trailing data is corruption, not slack: extra fields on a line and junk
// lines after the last record are both refused.
TEST(CheckpointCodecTest, TrailingDataIsCorruption) {
  const std::string final_payload = EncodeFinalCheckpoint(SampleFinal());
  EXPECT_EQ(DecodeFinal(final_payload + "junk\n", 4).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeFinal("k-final 3 99\n" +
                            final_payload.substr(final_payload.find('\n') + 1),
                        4)
                .status()
                .code(),
            StatusCode::kCorruption);
  const std::string mining = EncodeMiningCheckpoint(SampleMining());
  EXPECT_EQ(DecodeMining(mining + "sn 3fd0000000000000 0\n", 5).status().code(),
            StatusCode::kCorruption);
}

// --- Store policies ---

TEST(CheckpointStoreTest, SaveThenResumeServesPayload) {
  CheckpointOptions options;
  options.dir = FreshDir("store_roundtrip");
  const uint64_t run_key = 0x5678;

  CheckpointStore writer(options, run_key);
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kMining, "stage 7\n").ok());

  options.resume = true;
  CheckpointStore reader(options, run_key);
  auto cursor = reader.LoadStage(CheckpointStage::kMining);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto value = ReadInt(*cursor, "stage");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, 7);
  EXPECT_TRUE(cursor->Finish().ok());
  // A stage never saved is simply missing.
  EXPECT_EQ(reader.LoadStage(CheckpointStage::kFinal).status().code(),
            StatusCode::kIOError);
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, StageKeyedByAnotherRunIsRefused) {
  CheckpointOptions options;
  options.dir = FreshDir("store_other_run");
  CheckpointStore writer(options, 0x1111);
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kFinal, "stale\n").ok());

  options.resume = true;
  CheckpointStore reader(options, 0x2222);
  EXPECT_EQ(reader.LoadStage(CheckpointStage::kFinal).status().code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, StageWithoutKeyLineIsCorruption) {
  CheckpointOptions options;
  options.dir = FreshDir("store_keyless");
  options.resume = true;
  CheckpointStore store(options, 0x1234);
  std::filesystem::create_directories(options.dir);
  ASSERT_TRUE(WriteArtifact(store.StagePath(CheckpointStage::kFinal),
                            "checkpoint-final", 2,
                            EncodeFinalCheckpoint(SampleFinal()))
                  .ok());
  EXPECT_EQ(store.LoadStage(CheckpointStage::kFinal).status().code(),
            StatusCode::kCorruption);
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, NonResumingStoreNeverLoads) {
  CheckpointOptions options;
  options.dir = FreshDir("store_noresume");
  CheckpointStore store(options, 0x7);
  ASSERT_TRUE(store.SaveStage(CheckpointStage::kFinal, "old run\n").ok());
  EXPECT_EQ(store.LoadStage(CheckpointStage::kFinal).status().code(),
            StatusCode::kNotFound);
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, CorruptStageFileIsCorruption) {
  CheckpointOptions options;
  options.dir = FreshDir("store_corrupt");
  CheckpointStore writer(options, 42);
  ASSERT_TRUE(writer.SaveStage(CheckpointStage::kMining, "good bytes\n").ok());

  // Flip one byte of the stage artifact on disk.
  std::string stage_path = writer.StagePath(CheckpointStage::kMining);
  auto bytes = ReadFileBytes(stage_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(stage_path, mutated).ok());

  options.resume = true;
  CheckpointStore reader(options, 42);
  EXPECT_EQ(reader.LoadStage(CheckpointStage::kMining).status().code(),
            StatusCode::kCorruption);
  std::filesystem::remove_all(options.dir);
}

TEST(CheckpointStoreTest, DisabledStoreIsInert) {
  CheckpointStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.LoadStage(CheckpointStage::kMining).ok());
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

  // The run's result with no checkpoint directory at all.
  PartitionOutcome GroundTruth(PartitionerOptions options) {
    options.checkpoint = CheckpointOptions{};
    auto outcome = Partitioner(options).PartitionRoadGraph(graph_);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(*outcome) : PartitionOutcome{};
  }

  // Number of warnings naming `stage` as not adopted.
  static int NotAdopted(const PartitionOutcome& outcome,
                        const std::string& stage) {
    int count = 0;
    for (const std::string& w : outcome.diagnostics.warnings) {
      if (w.find("checkpoint stage '" + stage + "' not adopted") !=
          std::string::npos) {
        ++count;
      }
    }
    return count;
  }

  RoadGraph graph_;
};

// Every scheme, resumed from 'final' and from 'mining' (the 'final' stage
// deleted, so module 3 runs again on the stored supergraph, or from scratch
// for the road-graph schemes), with refinement on and off where it changes
// the module-3 path. The resumed run also rewrites 'final' byte for byte.
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
    for (const std::string from : {"final", "mining"}) {
      SCOPED_TRACE(std::string(SchemeName(c.scheme)) +
                   (c.refine ? " refine" : "") + " from " + from);
      const std::string dir = FreshDir("resume_matrix");
      PartitionerOptions options = BaseOptions(c.scheme, dir);
      options.refine_boundary = c.refine;

      auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      const std::string final_path = dir + "/stage-final.rpcp";
      const std::string final_bytes = ReadFileBytes(final_path).value();
      EXPECT_EQ(std::filesystem::exists(dir + "/stage-mining.rpcp"),
                c.scheme == Scheme::kASG || c.scheme == Scheme::kNSG);
      if (from == "mining") {
        ASSERT_TRUE(std::filesystem::remove(final_path));
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
      EXPECT_EQ(resumed->mining_report.chosen_kappa,
                fresh->mining_report.chosen_kappa);
      EXPECT_EQ(resumed->mining_report.kappas, fresh->mining_report.kappas);
      EXPECT_EQ(ReadFileBytes(final_path).value(), final_bytes);
      std::filesystem::remove_all(dir);
    }
  }
}

// Stage files are a pure function of the run key: two uninterrupted runs,
// at different thread counts, write the same bytes.
TEST_F(CheckpointResumeTest, UninterruptedRunsWriteByteIdenticalStages) {
  const std::string a = FreshDir("stages_a");
  const std::string b = FreshDir("stages_b");
  PartitionerOptions options = BaseOptions(Scheme::kASG, a);
  options.num_threads = 1;
  ASSERT_TRUE(Partitioner(options).PartitionRoadGraph(graph_).ok());
  options.checkpoint.dir = b;
  options.num_threads = 3;
  ASSERT_TRUE(Partitioner(options).PartitionRoadGraph(graph_).ok());
  for (const std::string stage : {"mining", "final"}) {
    const std::string name = "/stage-" + stage + ".rpcp";
    auto bytes_a = ReadFileBytes(a + name);
    auto bytes_b = ReadFileBytes(b + name);
    ASSERT_TRUE(bytes_a.ok() && bytes_b.ok()) << stage;
    EXPECT_EQ(*bytes_a, *bytes_b) << stage;
  }
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
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
  EXPECT_EQ(NotAdopted(*second, "mining"), 1);
  // And the uncheckpointed ground truth agrees with the recomputed run.
  EXPECT_EQ(second->assignment, GroundTruth(options).assignment);
  std::filesystem::remove_all(dir);
}

// A stage that a run of another key left behind — here 'final' of another
// seed under this run's own 'mining' — fails its key check: it is not
// adopted, a warning names it, and the stage is recomputed.
TEST_F(CheckpointResumeTest, StageOfAnotherRunIsRecomputed) {
  const std::string dir = FreshDir("resume_other_run");
  const std::string other = FreshDir("resume_other_run_b");
  PartitionerOptions options = BaseOptions(Scheme::kASG, dir);
  ASSERT_TRUE(Partitioner(options).PartitionRoadGraph(graph_).ok());
  PartitionerOptions other_options = options;
  other_options.seed = 12;
  other_options.checkpoint.dir = other;
  ASSERT_TRUE(Partitioner(other_options).PartitionRoadGraph(graph_).ok());
  std::filesystem::copy_file(other + "/stage-final.rpcp",
                             dir + "/stage-final.rpcp",
                             std::filesystem::copy_options::overwrite_existing);

  options.checkpoint.resume = true;
  auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(NotAdopted(*resumed, "final"), 1);
  EXPECT_EQ(NotAdopted(*resumed, "mining"), 0);
  EXPECT_EQ(resumed->assignment, GroundTruth(options).assignment);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(other);
}

// A fresh (non-resume) run of key B over a directory that holds key A's
// stages, killed after saving 'mining', leaves B's 'mining' next to A's
// 'final'. Neither key ever adopts the other's stage.
TEST_F(CheckpointResumeTest, CrashedFreshRunNeverPairsKeys) {
  const std::string dir = FreshDir("resume_pairing");
  const std::string scratch = FreshDir("resume_pairing_b");
  PartitionerOptions a = BaseOptions(Scheme::kASG, dir);
  ASSERT_TRUE(Partitioner(a).PartitionRoadGraph(graph_).ok());
  // Key B's run up to its 'mining' save: the stage it would have written
  // before the kill.
  PartitionerOptions b = a;
  b.seed = 12;
  b.miner.seed = 5;
  b.checkpoint.dir = scratch;
  ASSERT_TRUE(Partitioner(b).PartitionRoadGraph(graph_).ok());
  std::filesystem::copy_file(scratch + "/stage-mining.rpcp",
                             dir + "/stage-mining.rpcp",
                             std::filesystem::copy_options::overwrite_existing);
  b.checkpoint.dir = dir;

  b.checkpoint.resume = true;
  auto resumed_b = Partitioner(b).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed_b.ok()) << resumed_b.status().ToString();
  EXPECT_EQ(NotAdopted(*resumed_b, "mining"), 0);
  EXPECT_EQ(NotAdopted(*resumed_b, "final"), 1);
  EXPECT_EQ(resumed_b->assignment, GroundTruth(b).assignment);

  // B's resumed run rewrote 'final' under key B; key A now finds only
  // foreign stages and recomputes everything.
  a.checkpoint.resume = true;
  auto resumed_a = Partitioner(a).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed_a.ok()) << resumed_a.status().ToString();
  EXPECT_EQ(NotAdopted(*resumed_a, "mining"), 1);
  EXPECT_EQ(resumed_a->assignment, GroundTruth(a).assignment);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(scratch);
}

// A run without --resume never reads a stage, even one of its own key: a
// valid-looking 'final' with other labels does not leak into the result.
TEST_F(CheckpointResumeTest, NonResumeRunNeverLoadsAStage) {
  const std::string dir = FreshDir("resume_never");
  PartitionerOptions options = BaseOptions(Scheme::kAG, dir);
  auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(fresh.ok());
  // The same stage with every label shifted by one: still a valid labelling.
  PartitionOutcome shifted = *fresh;
  for (int& label : shifted.assignment) label = (label + 1) % shifted.k_final;
  const std::string final_path = dir + "/stage-final.rpcp";
  auto plant = [&] {
    EditStage(final_path, [&](const std::string& payload) {
      return payload.substr(0, payload.find('\n') + 1) +
             EncodeFinalCheckpoint(shifted);
    });
  };
  plant();

  auto again = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->assignment, fresh->assignment);
  EXPECT_TRUE(again->diagnostics.warnings.empty());
  // ...while a resumed run of the same key would have served it.
  plant();
  options.checkpoint.resume = true;
  auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->assignment, shifted.assignment);
  std::filesystem::remove_all(dir);
}

TEST_F(CheckpointResumeTest, CorruptStageRecomputesIdenticalResult) {
  std::string dir = FreshDir("resume_corrupt_stage");
  PartitionerOptions options = BaseOptions(Scheme::kASG, dir);
  auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(fresh.ok());

  // Corrupt the mining checkpoint and delete the final stage: the resumed
  // run must detect the damage, recompute, and still match.
  std::string mining_path = dir + "/stage-mining.rpcp";
  auto bytes = ReadFileBytes(mining_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 3] ^= 0x04;
  ASSERT_TRUE(AtomicWriteFile(mining_path, mutated).ok());
  std::filesystem::remove(dir + "/stage-final.rpcp");

  options.checkpoint.resume = true;
  auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->assignment, fresh->assignment);
  EXPECT_EQ(NotAdopted(*resumed, "mining"), 1);
  std::filesystem::remove_all(dir);
}

// A checksum-valid 'final' stage whose labels this graph cannot carry is
// not served: the resumed run warns, recomputes module 3 and matches.
TEST_F(CheckpointResumeTest, FinalStageWithBadLabelsIsRecomputed) {
  for (const std::string label : {"9", "-5"}) {
    SCOPED_TRACE("first label " + label);
    const std::string dir = FreshDir("resume_bad_labels");
    PartitionerOptions options = BaseOptions(Scheme::kASG, dir);
    auto fresh = Partitioner(options).PartitionRoadGraph(graph_);
    ASSERT_TRUE(fresh.ok());
    EditStage(dir + "/stage-final.rpcp", [&](const std::string& payload) {
      return WithFirstLabel(payload, label);
    });

    options.checkpoint.resume = true;
    auto resumed = Partitioner(options).PartitionRoadGraph(graph_);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->assignment, fresh->assignment);
    EXPECT_EQ(NotAdopted(*resumed, "final"), 1);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace roadpart
