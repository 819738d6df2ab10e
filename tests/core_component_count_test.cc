// Phase B of MineSupergraph scores every shortlisted kappa by a component
// count alone: BucketComponentCounter unions, in sorted-rank space, the
// edges that stay inside one 1-D k-means bucket, and only the winning kappa
// is labelled by the BFS of LabelConstrainedComponents. This suite checks
// the union-find count against that BFS for every kappa on seeded random
// graphs (ties, isolated nodes, one bucket, all-singleton buckets) and on
// city dual graphs, checks on hand-built graphs which edges the witness rule
// drops, checks that KMeans1DCuts + AssignFromCuts reproduce KMeans1D, and
// pins the full mining output on the congested D1 / M1 / M3 presets to
// fingerprints recorded with the per-kappa BFS implementation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

// n nodes, about `edges` random undirected edges; the first `isolated`
// nodes get none.
CsrGraph RandomGraph(Rng& rng, int n, int edges, int isolated) {
  std::vector<Edge> list;
  if (n - isolated >= 2) {
    for (int e = 0; e < edges; ++e) {
      const int u = static_cast<int>(rng.NextInt(isolated, n - 1));
      const int v = static_cast<int>(rng.NextInt(isolated, n - 1));
      list.push_back({u, v, 1.0});
    }
  }
  return CsrGraph::FromEdges(n, list).value();
}

// Values drawn from `distinct` levels (ties) or continuous when 0.
std::vector<double> RandomValues(Rng& rng, int n, int distinct) {
  std::vector<double> values(n);
  for (double& v : values) {
    v = distinct > 0 ? static_cast<double>(rng.NextInt(0, distinct - 1))
                     : rng.NextDouble(0.0, 100.0);
  }
  return values;
}

// Labels that `cuts` induce: node order[r] is in the bucket holding rank r.
std::vector<int> LabelsFromCuts(const std::vector<int>& order,
                                const std::vector<int>& cuts) {
  std::vector<int> labels(order.size(), -1);
  for (size_t b = 0; b + 1 < cuts.size(); ++b) {
    for (int r = cuts[b]; r < cuts[b + 1]; ++r) {
      labels[order[r]] = static_cast<int>(b);
    }
  }
  return labels;
}

int BfsCount(const CsrGraph& graph, const std::vector<int>& order,
             const std::vector<int>& cuts) {
  return LabelConstrainedComponents(graph, LabelsFromCuts(order, cuts))
      .num_components;
}

// For every kappa the k-means cut points admit: the union-find count equals
// the BFS count, and the cuts form reproduces KMeans1D exactly.
void ExpectCountsMatchBfs(const CsrGraph& graph,
                          const std::vector<double>& values,
                          const std::string& what) {
  const int n = graph.num_nodes();
  const Sorted1DWorkspace workspace(values);
  const BucketComponentCounter counter(graph, workspace.order());
  for (int kappa = 1; kappa <= std::min(n, 30); ++kappa) {
    SCOPED_TRACE(what + " kappa=" + std::to_string(kappa));
    auto cuts_only = KMeans1DCuts(workspace, kappa);
    auto full = KMeans1D(workspace, kappa);
    ASSERT_TRUE(cuts_only.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_TRUE(cuts_only->assignment.empty());
    EXPECT_EQ(cuts_only->cuts, full->cuts);
    EXPECT_EQ(cuts_only->means, full->means);
    EXPECT_EQ(cuts_only->wcss, full->wcss);
    EXPECT_EQ(cuts_only->iterations, full->iterations);
    EXPECT_EQ(AssignFromCuts(workspace, cuts_only->cuts), full->assignment);

    const std::vector<int>& cuts = cuts_only->cuts;
    ASSERT_EQ(cuts.size(), full->means.size() + 1);
    EXPECT_EQ(cuts.front(), 0);
    EXPECT_EQ(cuts.back(), n);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) EXPECT_LT(cuts[c], cuts[c + 1]);

    EXPECT_EQ(counter.CountComponents(cuts),
              LabelConstrainedComponents(graph, full->assignment)
                  .num_components);
  }
}

TEST(BucketComponentCounter, MatchesBfsOnSeededRandomGraphs) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.NextInt(2, 400));
    const int edges = static_cast<int>(rng.NextInt(0, 3 * n));
    CsrGraph graph = RandomGraph(rng, n, edges, 0);
    ExpectCountsMatchBfs(graph, RandomValues(rng, n, 0),
                         "seed " + std::to_string(seed));
  }
}

TEST(BucketComponentCounter, DuplicateDensities) {
  // Few distinct levels: KMeans1D caps kappa at the distinct count, and every
  // tie lands in one bucket whatever its rank.
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    Rng rng(seed);
    const int n = 300;
    CsrGraph graph = RandomGraph(rng, n, 2 * n, 0);
    const int levels = static_cast<int>(rng.NextInt(1, 12));
    ExpectCountsMatchBfs(graph, RandomValues(rng, n, levels),
                         "levels " + std::to_string(levels));
  }
}

TEST(BucketComponentCounter, IsolatedNodes) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    Rng rng(seed);
    const int n = 250;
    const int isolated = static_cast<int>(rng.NextInt(1, n));
    CsrGraph graph = RandomGraph(rng, n, n, isolated);
    ExpectCountsMatchBfs(graph, RandomValues(rng, n, 0),
                         "isolated " + std::to_string(isolated));
  }
}

TEST(BucketComponentCounter, OneBucketAndAllSingletons) {
  for (uint64_t seed = 41; seed <= 46; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.NextInt(1, 300));
    CsrGraph graph = RandomGraph(rng, n, 2 * n, n / 5);
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    const BucketComponentCounter counter(graph, order);

    // One bucket: plain connected components.
    EXPECT_EQ(counter.CountComponents({0, n}),
              ConnectedComponents(graph).num_components);
    // Every node its own bucket: no edge survives.
    std::vector<int> singletons(n + 1);
    std::iota(singletons.begin(), singletons.end(), 0);
    EXPECT_EQ(counter.CountComponents(singletons), n);
    EXPECT_EQ(BfsCount(graph, order, singletons), n);
  }
}

TEST(BucketComponentCounter, ArbitraryCutsOverAnyOrder) {
  // The counter needs only contiguous rank buckets, not k-means ones: random
  // cut sets over a random permutation, empty buckets included.
  for (uint64_t seed = 51; seed <= 62; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.NextInt(1, 200));
    CsrGraph graph = RandomGraph(rng, n, static_cast<int>(rng.NextInt(0, 4 * n)),
                                 static_cast<int>(rng.NextInt(0, n / 3)));
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    const BucketComponentCounter counter(graph, order);
    for (int trial = 0; trial < 20; ++trial) {
      const int interior = static_cast<int>(rng.NextInt(0, 10));
      std::vector<int> cuts = {0, n};
      for (int c = 0; c < interior; ++c) {
        cuts.push_back(static_cast<int>(rng.NextInt(0, n)));
      }
      std::sort(cuts.begin(), cuts.end());
      EXPECT_EQ(counter.CountComponents(cuts), BfsCount(graph, order, cuts))
          << "seed " << seed << " trial " << trial;
    }
  }
}

// The graph whose rank-space edges are `rank_edges` under `order` (node
// order[r] has rank r).
CsrGraph GraphInRankSpace(const std::vector<int>& order,
                          const std::vector<std::pair<int, int>>& rank_edges) {
  std::vector<Edge> edges;
  for (const auto& [a, b] : rank_edges) {
    edges.push_back({order[a], order[b], 1.0});
  }
  return CsrGraph::FromEdges(static_cast<int>(order.size()), edges).value();
}

// Every cut set over n ranks: each subset of [1, n) as interior cuts.
void ExpectEveryCutSetMatchesBfs(const CsrGraph& graph,
                                 const std::vector<int>& order,
                                 const BucketComponentCounter& counter) {
  const int n = static_cast<int>(order.size());
  for (int mask = 0; mask < (1 << (n - 1)); ++mask) {
    std::vector<int> cuts = {0};
    for (int c = 1; c < n; ++c) {
      if ((mask >> (c - 1)) & 1) cuts.push_back(c);
    }
    cuts.push_back(n);
    EXPECT_EQ(counter.CountComponents(cuts), BfsCount(graph, order, cuts))
        << "cut mask " << mask;
  }
}

TEST(BucketComponentCounter, DropsAnEdgeWithAWitnessAndKeepsOneWithout) {
  // In rank space: (0, 2) has the witness 1 and (1, 3) the witness 2, so
  // both are dropped. (1, 2) has the common neighbours 0 and 3, both outside
  // (1, 2): it is kept, and the bucket {1, 2} is one component only through
  // it. A non-identity order checks the relabelling.
  const std::vector<int> order = {3, 0, 2, 1};
  CsrGraph graph = GraphInRankSpace(
      order, {{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}});
  const BucketComponentCounter counter(graph, order);
  EXPECT_EQ(counter.kept_edges(), 3);
  EXPECT_EQ(counter.CountComponents({0, 1, 3, 4}), 3);
  EXPECT_EQ(counter.CountComponents({0, 2, 4}), 2);
  ExpectEveryCutSetMatchesBfs(graph, order, counter);

  // A triangle keeps its two short edges; (0, 2) has the witness 1.
  const std::vector<int> triangle_order = {1, 2, 0};
  CsrGraph triangle =
      GraphInRankSpace(triangle_order, {{0, 1}, {1, 2}, {0, 2}});
  const BucketComponentCounter triangle_counter(triangle, triangle_order);
  EXPECT_EQ(triangle_counter.kept_edges(), 2);
  ExpectEveryCutSetMatchesBfs(triangle, triangle_order, triangle_counter);

  const BucketComponentCounter empty(CsrGraph::FromEdges(0, {}).value(), {});
  EXPECT_EQ(empty.kept_edges(), 0);
  EXPECT_EQ(empty.CountComponents({0, 0}), 0);
}

TEST(BucketComponentCounter, CityDualGraphsWithTiesAndConstantDensities) {
  // Dual graphs carry a clique per intersection, so most of their edges have
  // a witness. Few density levels put long runs of ties into one bucket;
  // constant densities collapse every kappa to one bucket.
  for (uint64_t seed : {3, 11}) {
    CityOptions city;
    city.num_intersections = 260;
    city.target_segments = 440;
    city.area_sq_miles = 1.5;
    city.seed = seed;
    RoadGraph graph = RoadGraph::FromNetwork(GenerateCityNetwork(city).value());
    const int n = graph.num_nodes();
    Rng rng(seed);
    for (int levels : {2, 5}) {
      ExpectCountsMatchBfs(graph.adjacency(), RandomValues(rng, n, levels),
                           "seed " + std::to_string(seed) + " levels " +
                               std::to_string(levels));
    }
    ExpectCountsMatchBfs(graph.adjacency(), std::vector<double>(n, 2.5),
                         "seed " + std::to_string(seed) + " constant");
  }
}

TEST(BucketComponentCounter, RoadGraphEveryKappa) {
  // A real dual graph and density field: every kappa of the Algorithm 1
  // sweep range.
  RoadNetwork net = GenerateDataset(DatasetPreset::kD1, 5).value();
  CongestionFieldOptions field;
  field.seed = 9;
  CongestionField congestion(net, field);
  ASSERT_TRUE(net.SetDensities(congestion.Densities()).ok());
  RoadGraph graph = RoadGraph::FromNetwork(net);
  ExpectCountsMatchBfs(graph.adjacency(), graph.features(), "D1");
}

// Folds every deterministic output of MineSupergraph into one FNV-1a 64
// value: supernode members and feature bits, the superlink CSR (offsets,
// neighbors, weight bits) and the mining report without its wall-clock
// timers.
class Fingerprint {
 public:
  void Int(int64_t v) { hash_ = Fnv1a64(&v, sizeof(v), hash_); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Int(static_cast<int64_t>(bits));
  }
  void Ints(const std::vector<int>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (int x : v) Int(x);
  }
  void Doubles(const std::vector<double>& v) {
    Int(static_cast<int64_t>(v.size()));
    for (double x : v) Double(x);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = kFnv1a64Basis;
};

std::string MiningFingerprint(const Supergraph& sg,
                              const SupergraphMiningReport& rep) {
  Fingerprint fp;
  fp.Int(sg.num_supernodes());
  for (const Supernode& s : sg.supernodes()) {
    fp.Ints(s.members);
    fp.Double(s.feature);
  }
  fp.Int(sg.links().num_nodes());
  for (int64_t o : sg.links().offsets()) fp.Int(o);
  fp.Ints(sg.links().neighbors());
  fp.Doubles(sg.links().weights());
  fp.Ints(rep.kappas);
  fp.Doubles(rep.mcg);
  fp.Ints(rep.shortlisted_kappas);
  fp.Ints(rep.component_counts);
  fp.Double(rep.threshold);
  fp.Int(rep.effective_max_kappa);
  fp.Int(rep.chosen_kappa);
  fp.Int(rep.supernodes_before_stability);
  fp.Int(rep.supernodes_after_stability);
  fp.Doubles(rep.stability_values);
  return fp.Hex();
}

// The congested preset networks of the paper benches (Table 3): a generated
// network under a seeded rush-hour density field.
RoadNetwork CongestedPreset(DatasetPreset preset, int hotspots) {
  RoadNetwork net = GenerateDataset(preset, 17).value();
  CongestionFieldOptions field;
  field.num_hotspots = hotspots;
  field.hotspot_radius_fraction = 0.15;
  field.voronoi_tiling = true;
  field.seed = 1017;
  CongestionField congestion(net, field);
  RP_CHECK(net.SetDensities(congestion.Densities()).ok());
  return net;
}

struct MiningCase {
  const char* name;
  DatasetPreset preset;
  int hotspots;
  int min_supernodes;
  const char* fingerprint;  // recorded before the count-only Phase B
};

const MiningCase kMiningCases[] = {
    {"D1", DatasetPreset::kD1, 3, 0, "bb6285fc5df07838"},
    // No kappa reaches 1000 components: the most-components fallback wins.
    {"D1 fallback", DatasetPreset::kD1, 3, 1000, "295bc51d2cea042b"},
    {"M1", DatasetPreset::kM1, 5, 0, "4618fed82a641ca6"},
    // The partitioner's setting on the cut-asg-m3 path (min_supernodes = k).
    {"M3", DatasetPreset::kM3, 10, 6, "d7bc85e171ea836f"},
};


TEST(MineSupergraphFingerprint, MatchesPerKappaBfsOutput) {
  // One thread: thread invariance is mining_determinism_test's job, and in
  // a TSan+UBSan build the UBSan vptr check at std::thread start reports a
  // race inside the sanitizer runtime (pipe() in IsAccessibleMemoryRange)
  // on a share of multi-threaded runs of these presets.
  ScopedParallelism one_thread(1);
  for (const MiningCase& c : kMiningCases) {
    SCOPED_TRACE(c.name);
    RoadNetwork net = CongestedPreset(c.preset, c.hotspots);
    SupergraphMinerOptions options;
    options.min_supernodes = c.min_supernodes;
    SupergraphMiningReport report;
    auto sg = MineSupergraph(RoadGraph::FromNetwork(net), options, &report);
    ASSERT_TRUE(sg.ok()) << sg.status().ToString();
    ASSERT_EQ(report.component_counts.size(),
              report.shortlisted_kappas.size());
    EXPECT_EQ(MiningFingerprint(*sg, report), c.fingerprint);
  }
}

}  // namespace
}  // namespace roadpart
