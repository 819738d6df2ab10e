// Robustness tests: malformed inputs, degenerate networks and extreme
// parameters must produce clean Status errors (or sensible results), never
// crashes.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

// --- Malformed network files ---

TEST(RobustnessTest, TruncatedNetworkFile) {
  std::string path = WriteTemp("trunc.net",
                               "# roadnet v1\nI 3\n0 0\n");  // 1 of 3 nodes
  EXPECT_FALSE(LoadRoadNetwork(path).ok());
  std::remove(path.c_str());
}

TEST(RobustnessTest, GarbageNetworkFile) {
  std::string path = WriteTemp("garbage.net", "this is not a network\n");
  EXPECT_FALSE(LoadRoadNetwork(path).ok());
  std::remove(path.c_str());
}

TEST(RobustnessTest, NetworkWithDanglingSegment) {
  std::string path = WriteTemp("dangling.net",
                               "I 2\n0 0\n1 1\nS 1\n0 5 10.0 0.0\n");
  EXPECT_FALSE(LoadRoadNetwork(path).ok());
  std::remove(path.c_str());
}

TEST(RobustnessTest, EmptyDensityFile) {
  std::string path = WriteTemp("empty.densities", "");
  auto densities = LoadDensities(path);
  ASSERT_TRUE(densities.ok());
  EXPECT_TRUE(densities->empty());
  std::remove(path.c_str());
}

TEST(RobustnessTest, NonNumericDensityFile) {
  std::string path = WriteTemp("bad.densities", "0.1\nnope\n0.2\n");
  EXPECT_FALSE(LoadDensities(path).ok());
  std::remove(path.c_str());
}

// --- Malformed plain text: one table over all five loaders ---

Status LoadNet(const std::string& path) {
  return LoadRoadNetwork(path).status();
}
Status LoadDens(const std::string& path) {
  return LoadDensities(path).status();
}
Status LoadTwoSegmentPartition(const std::string& path) {
  return LoadPartitionCsv(path, 2).status();
}
// The row is the nodes file; the edges file is empty.
Status LoadNodes(const std::string& path) {
  const std::string edges = WriteTemp("malformed_edges_empty.csv", "");
  Status st = LoadEdgeListNetwork(path, edges).status();
  std::remove(edges.c_str());
  return st;
}
// The row is the edges file over nodes 0 and 1.
Status LoadEdges(const std::string& path) {
  const std::string nodes = WriteTemp("malformed_nodes.csv", "0,0,0\n1,5,0\n");
  Status st = LoadEdgeListNetwork(nodes, path).status();
  std::remove(nodes.c_str());
  return st;
}

TEST(RobustnessTest, MalformedTextIsATypedErrorNamingTheLine) {
  struct Row {
    const char* name;
    std::string text;
    Status (*load)(const std::string&);
    StatusCode code;
    int line;
  };
  const std::vector<Row> rows = {
      // A forged count must meet the end of input, not size an allocation.
      {"count-beyond-input", "I 2000000000\n0 0\n", LoadNet,
       StatusCode::kInvalidArgument, 3},
      {"count-not-a-number", "I abc\nS 0\n", LoadNet,
       StatusCode::kInvalidArgument, 1},
      {"junk-field", "I 2\n0 0 junk\n1 1\nS 1\n0 1 10 0.5\n", LoadNet,
       StatusCode::kInvalidArgument, 2},
      {"extra-segment-field", "I 2\n0 0\n1 1\nS 1\n0 1 10 0.5 7\n", LoadNet,
       StatusCode::kInvalidArgument, 5},
      {"record-after-last-segment",
       "I 2\n0 0\n1 1\nS 1\n0 1 10 0.5\n0 1 10 0.5\n", LoadNet,
       StatusCode::kInvalidArgument, 6},
      {"torn-last-number", "I 2\n0 0\n1 1\nS 1\n0 1 10 0.", LoadNet,
       StatusCode::kCorruption, 5},
      {"cr-in-densities", "0.1\r\n0.2\n", LoadDens,
       StatusCode::kInvalidArgument, 1},
      {"torn-densities", "0.1\n0.", LoadDens, StatusCode::kCorruption, 2},
      {"duplicate-partition-id", "segment_id,partition_id\n0,0\n0,1\n1,0\n",
       LoadTwoSegmentPartition, StatusCode::kInvalidArgument, 3},
      {"partition-label-past-int", "0,4294967297\n1,0\n",
       LoadTwoSegmentPartition, StatusCode::kInvalidArgument, 1},
      {"cr-in-partition", "0,0\r\n1,1\r\n", LoadTwoSegmentPartition,
       StatusCode::kInvalidArgument, 1},
      // A first row with one numeric field is data, not a header.
      {"typo-in-first-node-row", "x0,0,0\n1,5,0\n", LoadNodes,
       StatusCode::kInvalidArgument, 1},
      {"extra-node-field", "0,0,0,9\n", LoadNodes,
       StatusCode::kInvalidArgument, 1},
      {"torn-node-row", "0,0,0\n1,5,0.", LoadNodes, StatusCode::kCorruption, 2},
      {"oneway-not-0-or-1", "from_id,to_id,length,oneway\n0,1,5,2\n",
       LoadEdges, StatusCode::kInvalidArgument, 2},
      // An explicit length is the road's length: it must be positive.
      {"negative-edge-length", "0,1,-5,1\n", LoadEdges,
       StatusCode::kInvalidArgument, 1},
      {"zero-edge-length", "0,1,0,1\n", LoadEdges,
       StatusCode::kInvalidArgument, 1},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path = WriteTemp("malformed.txt", row.text);
    const Status st = row.load(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), row.code) << st.ToString();
    EXPECT_NE(st.message().find(path + ":" + std::to_string(row.line) + ":"),
              std::string::npos)
        << st.ToString();
    std::remove(path.c_str());
  }
}

TEST(RobustnessTest, NonFiniteGeometryIsRejected) {
  // ParseDouble reads "nan" and "inf"; a network must not hold them, or a
  // serving snapshot built from it fails its own grid validation.
  const std::vector<std::pair<std::string, Status (*)(const std::string&)>>
      cases = {{"I 2\nnan 0\n1 1\nS 1\n0 1 10 0.5\n", LoadNet},
               {"I 2\n0 0\n1 1\nS 1\n0 1 inf 0.5\n", LoadNet},
               {"0,0,inf\n1,5,0\n", LoadNodes},
               {"0,1,inf\n", LoadEdges}};
  for (const auto& [text, load] : cases) {
    const std::string path = WriteTemp("nonfinite.txt", text);
    EXPECT_EQ(load(path).code(), StatusCode::kInvalidArgument) << text;
    std::remove(path.c_str());
  }
}

// Saving what was loaded writes the same bytes: every loader reads back
// exactly the values its saver printed.
TEST(RobustnessTest, PlainTextRoundTripsAreFixedPoints) {
  RoadNetwork net = GenerateDataset(DatasetPreset::kD1, 5).value();
  auto same_bytes = [](const std::string& a, const std::string& b) {
    EXPECT_EQ(ReadFileBytes(a).value(), ReadFileBytes(b).value()) << a;
    std::remove(a.c_str());
    std::remove(b.c_str());
  };
  const std::string dir = testing::TempDir() + "/";

  ASSERT_TRUE(SaveRoadNetwork(net, dir + "rt1.net").ok());
  RoadNetwork loaded = LoadRoadNetwork(dir + "rt1.net").value();
  ASSERT_TRUE(SaveRoadNetwork(loaded, dir + "rt2.net").ok());
  same_bytes(dir + "rt1.net", dir + "rt2.net");

  std::vector<double> densities;
  std::vector<int> labels;
  for (const RoadSegment& s : net.segments()) {
    densities.push_back(s.density);
    labels.push_back(static_cast<int>(labels.size()) % 5);
  }
  ASSERT_TRUE(SaveDensities(densities, dir + "rt1.dens").ok());
  ASSERT_TRUE(
      SaveDensities(LoadDensities(dir + "rt1.dens").value(), dir + "rt2.dens")
          .ok());
  same_bytes(dir + "rt1.dens", dir + "rt2.dens");

  ASSERT_TRUE(SavePartitionCsv(labels, dir + "rt1.csv").ok());
  const std::vector<int> labels_back =
      LoadPartitionCsv(dir + "rt1.csv", net.num_segments()).value();
  EXPECT_EQ(labels_back, labels);
  ASSERT_TRUE(SavePartitionCsv(labels_back, dir + "rt2.csv").ok());
  same_bytes(dir + "rt1.csv", dir + "rt2.csv");

  ASSERT_TRUE(
      SaveEdgeListNetwork(net, dir + "rt1.nodes", dir + "rt1.edges").ok());
  RoadNetwork from_csv =
      LoadEdgeListNetwork(dir + "rt1.nodes", dir + "rt1.edges").value();
  ASSERT_TRUE(
      SaveEdgeListNetwork(from_csv, dir + "rt2.nodes", dir + "rt2.edges")
          .ok());
  same_bytes(dir + "rt1.nodes", dir + "rt2.nodes");
  same_bytes(dir + "rt1.edges", dir + "rt2.edges");

  SnapshotSeries series(net.num_segments());
  ASSERT_TRUE(series.Append(120.0, densities).ok());
  ASSERT_TRUE(series.Append(240.5, std::vector<double>(densities.size(),
                                                       1.0 / 3.0))
                  .ok());
  ASSERT_TRUE(SaveSnapshotSeries(series, dir + "rt1.series").ok());
  ASSERT_TRUE(SaveSnapshotSeries(LoadSnapshotSeries(dir + "rt1.series").value(),
                                 dir + "rt2.series")
                  .ok());
  same_bytes(dir + "rt1.series", dir + "rt2.series");
}

// A record's fields are split within its own line: a reader that searched
// the rest of the payload for each field separator would take time growing
// with the square of the file (minutes for these 100k blank-free lines).
TEST(RobustnessTest, LargeDensitiesFileLoadsInLinearTime) {
  std::vector<double> densities(100000);
  // Quarters print exactly with SaveDensities' nine decimals.
  for (size_t i = 0; i < densities.size(); ++i) {
    densities[i] = 0.25 * static_cast<double>(i % 4096);
  }
  const std::string path = testing::TempDir() + "/large.densities";
  ASSERT_TRUE(SaveDensities(densities, path).ok());
  Timer timer;
  auto loaded = LoadDensities(path);
  const double seconds = timer.Seconds();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, densities);
  EXPECT_LT(seconds, 10.0);
  std::remove(path.c_str());
}

// --- Degenerate partitioning inputs ---

RoadGraph TinyGraph(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1.0});
  std::vector<double> f(n, 0.0);
  for (int i = 0; i < n; ++i) f[i] = 0.1 * i;
  return RoadGraph::FromParts(CsrGraph::FromEdges(n, edges).value(), f)
      .value();
}

TEST(RobustnessTest, UniformDensitiesStillPartition) {
  // All segments identical: any k-way split is as good as any other, but the
  // pipeline must not divide by zero anywhere.
  RoadGraph rg =
      RoadGraph::FromParts(TinyGraph(20).adjacency(),
                           std::vector<double>(20, 0.5))
          .value();
  for (Scheme scheme : {Scheme::kAG, Scheme::kASG, Scheme::kNG}) {
    PartitionerOptions options;
    options.scheme = scheme;
    options.k = 3;
    options.seed = 4;
    auto outcome = Partitioner(options).PartitionRoadGraph(rg);
    ASSERT_TRUE(outcome.ok()) << SchemeName(scheme) << ": "
                              << outcome.status().ToString();
    EXPECT_EQ(outcome->k_final, 3);
  }
}

TEST(RobustnessTest, AllZeroDensities) {
  RoadGraph rg = RoadGraph::FromParts(TinyGraph(12).adjacency(),
                                      std::vector<double>(12, 0.0))
                     .value();
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 2;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->k_final, 2);
}

TEST(RobustnessTest, TwoNodeGraph) {
  RoadGraph rg = TinyGraph(2);
  PartitionerOptions options;
  options.scheme = Scheme::kAG;
  options.k = 2;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->k_final, 2);
  EXPECT_NE(outcome->assignment[0], outcome->assignment[1]);
}

TEST(RobustnessTest, ExtremeDensityMagnitudes) {
  // Huge dynamic range must not break the eigen machinery (scaling guards).
  std::vector<double> f = {1e-9, 2e-9, 1e-9, 0.5, 0.6, 0.5, 900.0, 950.0,
                           920.0, 910.0};
  RoadGraph rg =
      RoadGraph::FromParts(TinyGraph(10).adjacency(), f).value();
  PartitionerOptions options;
  options.scheme = Scheme::kAG;
  options.k = 3;
  options.seed = 6;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(
      CheckPartitionValidity(rg.adjacency(), outcome->assignment).ok());
}

TEST(RobustnessTest, MetricsOnSingletonPartitions) {
  RoadGraph rg = TinyGraph(4);
  std::vector<int> singletons = {0, 1, 2, 3};
  auto eval =
      EvaluatePartitions(rg.adjacency(), rg.features(), singletons);
  ASSERT_TRUE(eval.ok());
  EXPECT_DOUBLE_EQ(eval->intra, 0.0);
  EXPECT_GT(eval->inter, 0.0);
}

TEST(RobustnessTest, SupergraphOnStarTopology) {
  // Star network: the dual is a clique; mining must still work.
  std::vector<Intersection> pts(7);
  pts[0].position = {0, 0};
  for (int i = 1; i < 7; ++i) {
    pts[i].position = {100.0 * i, 50.0};
  }
  std::vector<RoadSegment> segs;
  for (int i = 1; i < 7; ++i) segs.push_back({0, i, 100.0, 0.01 * i});
  RoadNetwork net = RoadNetwork::Create(pts, segs).value();
  RoadGraph rg = RoadGraph::FromNetwork(net);
  auto sg = MineSupergraph(rg, {});
  ASSERT_TRUE(sg.ok());
  EXPECT_GE(sg->num_supernodes(), 1);
}

TEST(RobustnessTest, GeneratorsAtMinimumSizes) {
  GridOptions grid;
  grid.rows = 2;
  grid.cols = 2;
  EXPECT_TRUE(GenerateGridNetwork(grid).ok());
  RadialOptions radial;
  radial.num_rings = 1;
  radial.num_spokes = 3;
  EXPECT_TRUE(GenerateRadialNetwork(radial).ok());
  CityOptions city;
  city.num_intersections = 2;
  city.target_segments = 2;
  city.area_sq_miles = 0.1;
  EXPECT_TRUE(GenerateCityNetwork(city).ok());
}

// --- Density sanitization (numerical resilience layer) ---

// Builds a 12-node chain graph with one poisoned density value and runs the
// NG scheme under `policy`.
Result<PartitionOutcome> PartitionWithPoisonedDensity(double bad_value,
                                                      DensityPolicy policy) {
  RoadGraph chain = TinyGraph(12);
  std::vector<double> f = chain.features();
  f[5] = bad_value;
  RoadGraph rg = RoadGraph::FromParts(chain.adjacency(), f).value();
  PartitionerOptions options;
  options.scheme = Scheme::kNG;
  options.k = 2;
  options.seed = 3;
  options.density_policy = policy;
  return Partitioner(options).PartitionRoadGraph(rg);
}

TEST(RobustnessTest, NaNDensityRejectedByDefaultPolicy) {
  auto outcome = PartitionWithPoisonedDensity(std::nan(""),
                                              DensityPolicy::kReject);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, InfDensityRejectedByDefaultPolicy) {
  auto outcome = PartitionWithPoisonedDensity(
      std::numeric_limits<double>::infinity(), DensityPolicy::kReject);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, NegativeDensityRejectedByDefaultPolicy) {
  auto outcome = PartitionWithPoisonedDensity(-1.0, DensityPolicy::kReject);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, ClampPolicyRepairsAndReportsEveryClass) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -3.0}) {
    auto outcome =
        PartitionWithPoisonedDensity(bad, DensityPolicy::kClampAndWarn);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->diagnostics.density_repairs.total_repaired(), 1);
    EXPECT_FALSE(outcome->diagnostics.warnings.empty());
    EXPECT_TRUE(ValidatePartitionLabels(outcome->assignment, 12,
                                        outcome->k_final)
                    .ok());
  }
}

TEST(RobustnessTest, DensityCountMismatch) {
  // Short by three against the expected segment count.
  std::vector<double> short_vec(9, 0.5);
  auto rejected = SanitizeDensities(short_vec, DensityPolicy::kReject, 12);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  DensityRepairReport report;
  auto padded = SanitizeDensities(short_vec, DensityPolicy::kClampAndWarn, 12,
                                  &report);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->size(), 12u);
  EXPECT_EQ(report.padded, 3);

  std::vector<double> long_vec(15, 0.5);
  auto truncated = SanitizeDensities(long_vec, DensityPolicy::kClampAndWarn,
                                     12, &report);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->size(), 12u);
}

// --- Deadlines ---

TEST(RobustnessTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  CityOptions city;
  city.num_intersections = 400;
  city.target_segments = 700;
  city.seed = 9;
  RoadNetwork net = GenerateCityNetwork(city).value();
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 4;
  // Any real module-1 run exceeds a nanosecond budget, so the check after
  // road-graph construction must fire — and hand back no partition at all.
  options.deadline_seconds = 1e-9;
  auto outcome = Partitioner(options).PartitionNetwork(net);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RobustnessTest, GenerousDeadlineSucceedsAndReportsSlack) {
  RoadGraph rg = TinyGraph(20);
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 2;
  options.deadline_seconds = 3600.0;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->diagnostics.slack_module2_seconds, 0.0);
  EXPECT_GT(outcome->diagnostics.slack_module3_seconds, 0.0);
  EXPECT_FALSE(outcome->diagnostics.ToString().empty());
}

TEST(RobustnessTest, MicrosimWithNoTrips) {
  GridOptions grid;
  grid.rows = 3;
  grid.cols = 3;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  MicrosimOptions sim;
  sim.total_seconds = 10.0;
  sim.record_every_seconds = 5.0;
  auto result = RunMicrosim(net, {}, sim);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed_trips, 0);
  for (const auto& snap : result->densities) {
    for (double d : snap) EXPECT_DOUBLE_EQ(d, 0.0);
  }
}

}  // namespace
}  // namespace roadpart
