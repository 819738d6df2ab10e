#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "common/durable_io.h"
#include "core/partitioner.h"
#include "core/supergraph_miner.h"
#include "metrics/partition_metrics.h"
#include "metrics/validity.h"
#include "netgen/city_generator.h"
#include "netgen/grid_generator.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

RoadNetwork HotspotNetwork(uint64_t seed = 1) {
  GridOptions grid;
  grid.rows = 10;
  grid.cols = 10;
  grid.seed = seed;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.seed = seed + 100;
  CongestionField field(net, field_opt);
  (void)net.SetDensities(field.Densities());
  return net;
}

TEST(SchemeNameTest, AllNamed) {
  EXPECT_STREQ(SchemeName(Scheme::kAG), "AG");
  EXPECT_STREQ(SchemeName(Scheme::kASG), "ASG");
  EXPECT_STREQ(SchemeName(Scheme::kNG), "NG");
  EXPECT_STREQ(SchemeName(Scheme::kNSG), "NSG");
  EXPECT_STREQ(SchemeName(Scheme::kJiGeroliminis), "JiGeroliminis");
}

class PartitionerSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(PartitionerSchemeTest, ProducesValidKPartitions) {
  RoadNetwork net = HotspotNetwork();
  PartitionerOptions options;
  options.scheme = GetParam();
  options.k = 4;
  options.seed = 7;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->k_final, 4);
  EXPECT_EQ(outcome->assignment.size(),
            static_cast<size_t>(net.num_segments()));
  RoadGraph rg = RoadGraph::FromNetwork(net);
  EXPECT_TRUE(CheckPartitionValidity(rg.adjacency(), outcome->assignment).ok());
}

TEST_P(PartitionerSchemeTest, TimingsPopulated) {
  RoadNetwork net = HotspotNetwork(2);
  PartitionerOptions options;
  options.scheme = GetParam();
  options.k = 3;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->module1_seconds, 0.0);
  EXPECT_GE(outcome->module3_seconds, 0.0);
  bool supergraph_scheme =
      GetParam() == Scheme::kASG || GetParam() == Scheme::kNSG;
  if (supergraph_scheme) {
    EXPECT_GT(outcome->num_supernodes, 0);
    EXPECT_GE(outcome->module2_seconds, 0.0);
  } else {
    EXPECT_EQ(outcome->num_supernodes, 0);
    EXPECT_EQ(outcome->module2_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, PartitionerSchemeTest,
                         ::testing::Values(Scheme::kAG, Scheme::kASG,
                                           Scheme::kNG, Scheme::kNSG,
                                           Scheme::kJiGeroliminis),
                         [](const auto& info) {
                           return std::string(SchemeName(info.param));
                         });

TEST(PartitionerTest, SupergraphSchemesReduceProblemSize) {
  RoadNetwork net = HotspotNetwork(3);
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 4;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->num_supernodes, 0);
  EXPECT_LT(outcome->num_supernodes, net.num_segments());
  EXPECT_GT(outcome->mining_report.chosen_kappa, 1);
}

TEST(PartitionerTest, SeedsChangeOnlyRandomizedParts) {
  RoadNetwork net = HotspotNetwork(4);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  PartitionerOptions a;
  a.scheme = Scheme::kASG;
  a.k = 4;
  a.seed = 1;
  PartitionerOptions b = a;
  auto out_a1 = Partitioner(a).PartitionRoadGraph(rg);
  auto out_a2 = Partitioner(a).PartitionRoadGraph(rg);
  ASSERT_TRUE(out_a1.ok() && out_a2.ok());
  // Same seed: identical assignment.
  EXPECT_EQ(out_a1->assignment, out_a2->assignment);
  (void)b;
}

TEST(PartitionerTest, StabilityOptionFlowsThrough) {
  RoadNetwork net = HotspotNetwork(5);
  PartitionerOptions loose;
  loose.scheme = Scheme::kASG;
  loose.k = 3;
  loose.miner.stability.threshold = 0.0;
  PartitionerOptions strict = loose;
  strict.miner.stability.threshold = 0.999;
  auto out_loose = Partitioner(loose).PartitionNetwork(net);
  auto out_strict = Partitioner(strict).PartitionNetwork(net);
  ASSERT_TRUE(out_loose.ok() && out_strict.ok());
  EXPECT_GE(out_strict->num_supernodes, out_loose->num_supernodes);
}

TEST(PartitionerTest, InvalidKPropagates) {
  RoadNetwork net = HotspotNetwork(6);
  PartitionerOptions options;
  options.scheme = Scheme::kAG;
  options.k = net.num_segments() + 1;
  auto outcome = Partitioner(options).PartitionNetwork(net);
  EXPECT_FALSE(outcome.ok());
}

TEST(PartitionerTest, PartitionsFollowCongestionStructure) {
  // With strong hotspots, the ASG partitioning must beat a size-balanced
  // arbitrary split on the ANS metric.
  RoadNetwork net = HotspotNetwork(7);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 4;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok());
  double ans_cut =
      AverageNcutSilhouette(rg.adjacency(), rg.features(), outcome->assignment)
          .value();
  // Stripes of equal size as the arbitrary baseline.
  std::vector<int> stripes(rg.num_nodes());
  for (int v = 0; v < rg.num_nodes(); ++v) {
    stripes[v] = v * 4 / rg.num_nodes();
  }
  double ans_stripes =
      AverageNcutSilhouette(rg.adjacency(), rg.features(), stripes).value();
  EXPECT_LT(ans_cut, ans_stripes);
}

// Supergraph refinement moves whole supernodes; the reported objective must
// be the refined labels' objective on the graph that was cut, the mined
// supergraph's links.
TEST(PartitionerTest, SupergraphRefinementReportsRefinedObjective) {
  RoadNetwork net = HotspotNetwork(3);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  for (Scheme scheme : {Scheme::kASG, Scheme::kNSG}) {
    SCOPED_TRACE(SchemeName(scheme));
    PartitionerOptions options;
    options.scheme = scheme;
    options.k = 4;
    auto raw = Partitioner(options).PartitionRoadGraph(rg);
    options.refine_boundary = true;
    auto refined = Partitioner(options).PartitionRoadGraph(rg);
    ASSERT_TRUE(raw.ok() && refined.ok());

    SupergraphMinerOptions miner = options.miner;
    miner.min_supernodes = std::max(miner.min_supernodes, options.k);
    auto sg = MineSupergraph(rg, miner);
    ASSERT_TRUE(sg.ok());
    ASSERT_EQ(sg->num_supernodes(), refined->num_supernodes);
    std::vector<int> labels(sg->num_supernodes());
    for (int s = 0; s < sg->num_supernodes(); ++s) {
      labels[s] = refined->assignment[sg->supernode(s).members.front()];
    }
    std::unique_ptr<SpectralCutMethod> method;
    if (scheme == Scheme::kASG) {
      method = std::make_unique<AlphaCutMethod>(options.spectral);
    } else {
      method = std::make_unique<NormalizedCutMethod>(options.spectral);
    }
    const double expected = method->Objective(sg->links(), labels);
    // Refinement moved something, so a stale objective would show.
    EXPECT_LT(expected, raw->objective);
    EXPECT_NEAR(refined->objective, expected,
                1e-12 * std::max(1.0, std::abs(expected)));
  }
}

// Uniform densities leave the supergraph schemes nothing to mine, so ASG
// falls back to cutting the weighted road graph with alpha-Cut: exactly AG,
// boundary refinement included.
TEST(PartitionerTest, RoadGraphFallbackRefinesLikeAG) {
  RoadGraph hotspots = RoadGraph::FromNetwork(HotspotNetwork(3));
  RoadGraph rg =
      RoadGraph::FromParts(hotspots.adjacency(),
                           std::vector<double>(hotspots.num_nodes(), 0.5))
          .value();
  PartitionerOptions options;
  options.scheme = Scheme::kAG;
  options.k = 4;
  auto ag = Partitioner(options).PartitionRoadGraph(rg);
  options.refine_boundary = true;
  auto ag_refined = Partitioner(options).PartitionRoadGraph(rg);
  options.scheme = Scheme::kASG;
  auto asg_refined = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(ag.ok() && ag_refined.ok() && asg_refined.ok());

  ASSERT_LT(asg_refined->num_supernodes, options.k);  // the fallback ran
  // Refinement moved something, so skipping it would show.
  EXPECT_NE(ag_refined->assignment, ag->assignment);
  EXPECT_EQ(asg_refined->assignment, ag_refined->assignment);
  EXPECT_EQ(asg_refined->objective, ag_refined->objective);
}

// perfbench's cut-ag input: an 800-segment generated city under a
// 4-hotspot Voronoi-tiled congestion field.
RoadNetwork AgBenchCity() {
  CityOptions city;
  city.num_intersections = 470;
  city.target_segments = 800;
  city.area_sq_miles = 3.1;
  city.seed = 1;
  RoadNetwork net = GenerateCityNetwork(city).value();
  CongestionFieldOptions field;
  field.num_hotspots = 4;
  field.voronoi_tiling = true;
  field.seed = 1001;
  EXPECT_TRUE(net.SetDensities(CongestionField(net, field).Densities()).ok());
  return net;
}

// The cut-ag benchmark op, pinned: AG k=6 converges on the first Lanczos
// rung, through the Chebyshev-filtered factorization. The labels are
// fingerprinted as perfbench does (FNV-1a over the int label bytes), so a
// change to them shows up here without running the benchmark.
TEST(PartitionerTest, BenchmarkAgCityLabelsArePinned) {
  const RoadNetwork net = AgBenchCity();
  ASSERT_EQ(net.num_segments(), 800);
  for (int threads : {1, 2, 4, 8}) {
    PartitionerOptions options;
    options.scheme = Scheme::kAG;
    options.k = 6;
    options.num_threads = threads;
    auto outcome = Partitioner(options).PartitionNetwork(net);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const std::vector<int>& labels = outcome->assignment;
    EXPECT_EQ(Fnv1a64(labels.data(), labels.size() * sizeof(int)),
              0xf77ee041a81f7a24ULL)
        << "threads=" << threads;
    EXPECT_EQ(outcome->k_final, 6);
    EXPECT_EQ(outcome->k_prime, 7);
    // The plain factorization misses its 120-row checkpoint on this
    // clustered spectrum, and the Chebyshev-filtered one converges within
    // the configured budget: no escalation to the retry rung.
    EXPECT_EQ(outcome->diagnostics.eigen.solver_path,
              SolverPath::kLanczosFirstTry);
    EXPECT_TRUE(outcome->diagnostics.eigen.all_converged);
    for (const std::string& warning : outcome->diagnostics.warnings) {
      EXPECT_EQ(warning.find("escalated"), std::string::npos) << warning;
    }
  }
}

// k = 1 is the whole network as one region, for every scheme: nothing is
// mined or solved, and the objective is 0 (no edge is cut).
TEST(PartitionerTest, OneRegionSkipsMiningAndTheCut) {
  RoadNetwork net = GenerateDataset(DatasetPreset::kD1, 5).value();
  CongestionField field(net, CongestionFieldOptions{});
  ASSERT_TRUE(net.SetDensities(field.Densities()).ok());
  for (Scheme scheme : {Scheme::kASG, Scheme::kAG, Scheme::kNSG,
                        Scheme::kJiGeroliminis}) {
    PartitionerOptions options;
    options.scheme = scheme;
    options.k = 1;
    auto outcome = Partitioner(options).PartitionNetwork(net);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->assignment,
              std::vector<int>(net.num_segments(), 0));
    EXPECT_EQ(outcome->k_final, 1);
    EXPECT_EQ(outcome->k_prime, 1);
    EXPECT_EQ(outcome->objective, 0.0);
    EXPECT_EQ(outcome->num_supernodes, 0);
    EXPECT_TRUE(outcome->mining_report.kappas.empty());
    EXPECT_EQ(outcome->diagnostics.eigen.solves, 0);
    EXPECT_TRUE(outcome->diagnostics.warnings.empty());
  }
}

}  // namespace
}  // namespace roadpart
