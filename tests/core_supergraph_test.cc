#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/supergraph.h"
#include "core/supergraph_miner.h"
#include "graph/connected_components.h"
#include "network/road_graph.h"

namespace roadpart {
namespace {

CsrGraph Path(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1.0});
  return CsrGraph::FromEdges(n, edges).value();
}

// Path of 12 nodes with two clean density plateaus.
RoadGraph PlateauRoadGraph() {
  std::vector<double> f;
  for (int i = 0; i < 6; ++i) f.push_back(0.1 + 0.001 * i);
  for (int i = 0; i < 6; ++i) f.push_back(0.9 + 0.001 * i);
  return RoadGraph::FromParts(Path(12), f).value();
}

// --- Supergraph type ---

TEST(SupergraphTest, CreateValidatesPartition) {
  CsrGraph links = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  std::vector<Supernode> sns(2);
  sns[0].members = {0, 1};
  sns[1].members = {2};
  ASSERT_TRUE(Supergraph::Create(sns, links, 3).ok());

  // Overlap.
  sns[1].members = {1, 2};
  CsrGraph links2 = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  EXPECT_FALSE(Supergraph::Create(sns, links2, 3).ok());

  // Uncovered node.
  sns[1].members = {2};
  CsrGraph links3 = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  EXPECT_FALSE(Supergraph::Create(sns, links3, 4).ok());

  // Empty supernode.
  sns[1].members = {};
  CsrGraph links4 = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  EXPECT_FALSE(Supergraph::Create(sns, links4, 2).ok());

  // Mismatched link graph order.
  std::vector<Supernode> one(1);
  one[0].members = {0, 1, 2};
  CsrGraph links5 = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  EXPECT_FALSE(Supergraph::Create(one, links5, 3).ok());
}

TEST(SupergraphTest, ExpandAssignment) {
  CsrGraph links = CsrGraph::FromEdges(2, {{0, 1, 0.5}}).value();
  std::vector<Supernode> sns(2);
  sns[0].members = {0, 2};
  sns[1].members = {1};
  Supergraph sg = Supergraph::Create(sns, links, 3).value();
  auto expanded = sg.ExpandAssignment({7, 9});
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, (std::vector<int>{7, 9, 7}));
  EXPECT_FALSE(sg.ExpandAssignment({1}).ok());
  EXPECT_EQ(sg.SupernodeOf(2), 0);
}

// --- SuperlinkWeight (Equation 3) ---

TEST(SuperlinkWeightTest, PaperEq3IsGaussian) {
  double sigma_sq = 2.0;
  double w = SuperlinkWeight(1.0, 3.0, 5, sigma_sq,
                             SuperlinkWeightScheme::kPaperEq3);
  EXPECT_NEAR(w, std::exp(-4.0 / 4.0), 1e-12);
  // Link count does not matter in the printed formula.
  EXPECT_DOUBLE_EQ(w, SuperlinkWeight(1.0, 3.0, 50, sigma_sq,
                                      SuperlinkWeightScheme::kPaperEq3));
}

TEST(SuperlinkWeightTest, IdenticalFeaturesGiveOne) {
  EXPECT_DOUBLE_EQ(SuperlinkWeight(2.0, 2.0, 3, 1.0,
                                   SuperlinkWeightScheme::kPaperEq3),
                   1.0);
}

TEST(SuperlinkWeightTest, BoundedInUnitInterval) {
  for (double gap : {0.0, 0.5, 1.0, 5.0, 100.0}) {
    double w = SuperlinkWeight(0.0, gap, 2, 1.0,
                               SuperlinkWeightScheme::kPaperEq3);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(SuperlinkWeightTest, LinkCountScaledGrows) {
  double w1 = SuperlinkWeight(0.0, 1.0, 1, 1.0,
                              SuperlinkWeightScheme::kLinkCountScaled);
  double w4 = SuperlinkWeight(0.0, 1.0, 4, 1.0,
                              SuperlinkWeightScheme::kLinkCountScaled);
  EXPECT_NEAR(w4, 2.0 * w1, 1e-12);
}

TEST(SuperlinkWeightTest, ZeroVarianceDegradesToOne) {
  EXPECT_DOUBLE_EQ(SuperlinkWeight(1.0, 9.0, 2, 0.0,
                                   SuperlinkWeightScheme::kPaperEq3),
                   1.0);
}

// --- MineSupergraph (Algorithm 1) ---

TEST(SupergraphMinerTest, PlateausBecomeTwoSupernodes) {
  RoadGraph rg = PlateauRoadGraph();
  SupergraphMinerOptions opt;
  opt.max_kappa = 5;
  SupergraphMiningReport report;
  auto sg = MineSupergraph(rg, opt, &report);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->num_supernodes(), 2);
  EXPECT_EQ(report.chosen_kappa, 2);
  EXPECT_EQ(sg->num_road_nodes(), 12);
  // One superlink between the two plateaus.
  EXPECT_EQ(sg->links().num_edges(), 1);
  double w = sg->links().EdgeWeight(0, 1);
  EXPECT_GT(w, 0.0);
  EXPECT_LE(w, 1.0);
  // Features are the plateau means.
  std::vector<double> feats = sg->Features();
  std::sort(feats.begin(), feats.end());
  EXPECT_NEAR(feats[0], 0.1025, 1e-3);
  EXPECT_NEAR(feats[1], 0.9025, 1e-3);
}

TEST(SupergraphMinerTest, SupernodesAreConnectedInRoadGraph) {
  RoadGraph rg = PlateauRoadGraph();
  auto sg = MineSupergraph(rg, {});
  ASSERT_TRUE(sg.ok());
  for (const Supernode& sn : sg->supernodes()) {
    EXPECT_TRUE(IsSubsetConnected(rg.adjacency(), sn.members));
  }
}

TEST(SupergraphMinerTest, MembersPartitionNodeSet) {
  RoadGraph rg = PlateauRoadGraph();
  auto sg = MineSupergraph(rg, {});
  ASSERT_TRUE(sg.ok());
  std::set<int> seen;
  for (const Supernode& sn : sg->supernodes()) {
    for (int v : sn.members) {
      EXPECT_TRUE(seen.insert(v).second) << "node " << v << " duplicated";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), rg.num_nodes());
}

TEST(SupergraphMinerTest, SuperlinkExistsIffCrossEdgeExists) {
  RoadGraph rg = PlateauRoadGraph();
  auto sg = MineSupergraph(rg, {});
  ASSERT_TRUE(sg.ok());
  const CsrGraph& road = rg.adjacency();
  const int ns = sg->num_supernodes();
  // Build ground truth cross-adjacency.
  std::set<std::pair<int, int>> expected;
  for (int u = 0; u < road.num_nodes(); ++u) {
    for (int v : road.Neighbors(u)) {
      int p = sg->SupernodeOf(u);
      int q = sg->SupernodeOf(v);
      if (p != q) expected.insert({std::min(p, q), std::max(p, q)});
    }
  }
  int found = 0;
  for (int p = 0; p < ns; ++p) {
    for (int q : sg->links().Neighbors(p)) {
      if (p < q) {
        EXPECT_TRUE(expected.count({p, q}));
        ++found;
      }
    }
  }
  EXPECT_EQ(found, static_cast<int>(expected.size()));
}

TEST(SupergraphMinerTest, ReportSweepRecorded) {
  RoadGraph rg = PlateauRoadGraph();
  SupergraphMinerOptions opt;
  opt.max_kappa = 6;
  SupergraphMiningReport report;
  ASSERT_TRUE(MineSupergraph(rg, opt, &report).ok());
  ASSERT_EQ(report.kappas.size(), report.mcg.size());
  EXPECT_EQ(report.kappas.front(), 2);
  EXPECT_FALSE(report.shortlisted_kappas.empty());
  EXPECT_GE(report.threshold, 0.0);
  EXPECT_EQ(static_cast<int>(report.stability_values.size()),
            report.supernodes_after_stability);
}

TEST(SupergraphMinerTest, AbsoluteThresholdRespected) {
  RoadGraph rg = PlateauRoadGraph();
  SupergraphMinerOptions opt;
  opt.mcg_threshold_absolute = 0.0;  // everything shortlisted
  opt.max_kappa = 5;
  SupergraphMiningReport report;
  ASSERT_TRUE(MineSupergraph(rg, opt, &report).ok());
  EXPECT_EQ(report.shortlisted_kappas.size(), report.kappas.size());
}

TEST(SupergraphMinerTest, StabilityThresholdSplitsMore) {
  // Noisy features so low-kappa clusters are internally diverse.
  std::vector<double> f;
  for (int i = 0; i < 40; ++i) {
    f.push_back(0.1 + 0.02 * (i % 7));
  }
  RoadGraph rg = RoadGraph::FromParts(Path(40), f).value();
  SupergraphMinerOptions loose;
  loose.stability.threshold = 0.0;
  SupergraphMinerOptions strict;
  strict.stability.threshold = 0.999;
  auto sg_loose = MineSupergraph(rg, loose);
  auto sg_strict = MineSupergraph(rg, strict);
  ASSERT_TRUE(sg_loose.ok() && sg_strict.ok());
  EXPECT_GE(sg_strict->num_supernodes(), sg_loose->num_supernodes());
}

TEST(SupergraphMinerTest, EmptyGraphRejected) {
  RoadGraph rg;
  EXPECT_FALSE(MineSupergraph(rg, {}).ok());
}

TEST(SupergraphMinerTest, InvalidThresholdsRejected) {
  // eta lies in [0, 1], so a stability threshold outside it (or NaN) is an
  // InvalidArgument, as is a NaN MCG threshold in either form. Both ends of
  // the interval are accepted.
  const RoadGraph rg = PlateauRoadGraph();
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (double bad : {nan, -1.0, -1e-300, 1.0 + 1e-15, 2.0, inf, -inf}) {
    SupergraphMinerOptions opt;
    opt.stability.threshold = bad;
    auto sg = MineSupergraph(rg, opt);
    ASSERT_FALSE(sg.ok()) << bad;
    EXPECT_EQ(sg.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(sg.status().message().find("stability threshold="),
              std::string::npos)
        << sg.status().ToString();
  }
  for (double good : {0.0, 0.5, 1.0}) {
    SupergraphMinerOptions opt;
    opt.stability.threshold = good;
    EXPECT_TRUE(MineSupergraph(rg, opt).ok()) << good;
  }
  SupergraphMinerOptions absolute;
  absolute.mcg_threshold_absolute = nan;
  SupergraphMinerOptions fraction;
  fraction.mcg_threshold_fraction = nan;
  for (const SupergraphMinerOptions& opt : {absolute, fraction}) {
    auto sg = MineSupergraph(rg, opt);
    ASSERT_FALSE(sg.ok());
    EXPECT_EQ(sg.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sg.status().message().find("MCG threshold is NaN"),
              std::string::npos)
        << sg.status().ToString();
  }
}

TEST(SupergraphMinerTest, SamplingPathStillWorks) {
  std::vector<double> f;
  for (int i = 0; i < 200; ++i) f.push_back(i < 100 ? 0.1 : 0.8);
  RoadGraph rg = RoadGraph::FromParts(Path(200), f).value();
  SupergraphMinerOptions opt;
  opt.sample_size = 50;  // force the sampling branch
  auto sg = MineSupergraph(rg, opt);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->num_supernodes(), 2);
}

}  // namespace
}  // namespace roadpart
