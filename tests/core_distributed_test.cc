#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/distributed_repartition.h"
#include "metrics/validity.h"
#include "netgen/grid_generator.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

struct Fixture {
  RoadNetwork network;
  RoadGraph graph;
  std::vector<int> initial;
};

Fixture MakeSetup(uint64_t seed) {
  GridOptions grid;
  grid.rows = 10;
  grid.cols = 10;
  grid.seed = seed;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.voronoi_tiling = true;
  field_opt.seed = seed + 7;
  CongestionField field(net, field_opt);
  (void)net.SetDensities(field.Densities());
  RoadGraph rg = RoadGraph::FromNetwork(net);

  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 3;
  options.seed = seed;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg).value();
  return {std::move(net), std::move(rg), std::move(outcome.assignment)};
}

TEST(DistributedRepartitionTest, SplitsEveryRegion) {
  Fixture s = MakeSetup(5);
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  options.partitioner.seed = 9;
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Refresh(s.graph.features());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 3 regions x 2 sub-partitions (regions can fall back to staying whole).
  EXPECT_GE(result->k_final, 3);
  EXPECT_LE(result->k_final, 6);
  EXPECT_EQ(result->regions_repartitioned +
                (result->k_final - 2 * result->regions_repartitioned),
            3);
  EXPECT_TRUE(
      CheckPartitionValidity(s.graph.adjacency(), result->assignment).ok());
}

TEST(DistributedRepartitionTest, SubPartitionsNestInsideRegions) {
  Fixture s = MakeSetup(6);
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  options.partitioner.seed = 11;
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Refresh(s.graph.features());
  ASSERT_TRUE(result.ok());
  // A refreshed label never spans two old regions.
  std::vector<int> owner(result->k_final, -1);
  for (size_t v = 0; v < s.initial.size(); ++v) {
    int sub = result->assignment[v];
    if (owner[sub] == -1) {
      owner[sub] = s.initial[v];
    } else {
      EXPECT_EQ(owner[sub], s.initial[v]) << "node " << v;
    }
  }
}

TEST(DistributedRepartitionTest, KOneKeepsRegions) {
  Fixture s = MakeSetup(7);
  DistributedRepartitionOptions options;
  options.partitioner.k = 1;
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Refresh(s.graph.features());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->k_final, 3);
  EXPECT_EQ(result->regions_repartitioned, 0);
}

TEST(DistributedRepartitionTest, TriggerSkipsUniformRegions) {
  Fixture s = MakeSetup(8);
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  options.trigger_ratio = 100.0;  // nothing is THAT spread out
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Refresh(s.graph.features());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->regions_repartitioned, 0);
  EXPECT_EQ(result->k_final, 3);
}

TEST(DistributedRepartitionTest, Validation) {
  Fixture s = MakeSetup(9);
  DistributedRepartitionOptions options;
  EXPECT_FALSE(IncrementalRepartitioner::Create(s.graph, {0, 1}, options).ok());
  std::vector<int> negative = s.initial;
  negative[0] = -1;
  EXPECT_FALSE(
      IncrementalRepartitioner::Create(s.graph, negative, options).ok());
  options.partitioner.k = 0;
  EXPECT_FALSE(
      IncrementalRepartitioner::Create(s.graph, s.initial, options).ok());
}

TEST(DistributedRepartitionTest, FasterThanGlobalRepartitioning) {
  // The Section 6.4 claim: per-region refresh costs less than a whole-
  // network partition at comparable granularity.
  Fixture s = MakeSetup(10);
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  options.partitioner.seed = 3;
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto local = engine->Refresh(s.graph.features());
  ASSERT_TRUE(local.ok());

  PartitionerOptions global;
  global.scheme = Scheme::kAG;
  global.k = local->k_final;
  global.seed = 3;
  Timer timer;
  auto whole = Partitioner(global).PartitionRoadGraph(s.graph);
  double global_seconds = timer.Seconds();
  ASSERT_TRUE(whole.ok());
  // Distributed must not be drastically slower; usually it is much faster
  // (the test is lenient to stay robust on loaded machines).
  EXPECT_LT(local->seconds, global_seconds * 2.0 + 0.05);
}

// ---------------------------------------------------------------------------
// IncrementalRepartitioner across intervals.

DistributedRepartitionOptions IncrementalOptions() {
  DistributedRepartitionOptions options;
  options.partitioner.scheme = Scheme::kAG;
  options.partitioner.k = 2;
  options.partitioner.seed = 9;
  options.trigger_ratio = 0.05;
  options.boundary_delta_ratio = 0.05;
  return options;
}

// A small drifting series over the fixture's network: hotspots migrate with
// time01, so consecutive snapshots perturb some regions more than others.
std::vector<std::vector<double>> MakeSeries(const Fixture& s, int snapshots) {
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.voronoi_tiling = true;
  field_opt.seed = 99;
  CongestionField field(s.network, field_opt);
  std::vector<std::vector<double>> series;
  for (int t = 0; t < snapshots; ++t) {
    series.push_back(
        field.DensitiesAt(static_cast<double>(t) / (snapshots - 1)));
  }
  return series;
}

uint64_t Fingerprint(uint64_t h, const std::vector<int>& a) {
  return Fnv1a64(a.data(), a.size() * sizeof(int), h);
}

TEST(IncrementalRepartitionerTest, ThreadCountInvariance) {
  // The differential guarantee: the refreshed bytes never depend on the
  // fan-out width, across a whole multi-interval history (caches, warm
  // starts, dirty decisions included).
  Fixture s = MakeSetup(12);
  std::vector<std::vector<double>> series = MakeSeries(s, 4);
  std::vector<uint64_t> fingerprints;
  for (int threads : {1, 2, 8}) {
    DistributedRepartitionOptions options = IncrementalOptions();
    options.num_threads = threads;
    auto engine =
        IncrementalRepartitioner::Create(s.graph, s.initial, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    uint64_t h = kFnv1a64Basis;
    for (const std::vector<double>& densities : series) {
      auto refresh = engine->Refresh(densities);
      ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
      h = Fingerprint(h, refresh->assignment);
    }
    fingerprints.push_back(h);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(IncrementalRepartitionerTest, CleanRegionsReuseCachedBytes) {
  Fixture s = MakeSetup(13);
  DistributedRepartitionOptions options = IncrementalOptions();
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());

  auto first = engine->Refresh(s.graph.features());
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.dirty, 0);  // cold: structured regions get cut

  // Identical densities: nothing moved, so nothing is dirty and the bytes
  // are reused verbatim.
  auto second = engine->Refresh(s.graph.features());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.dirty, 0);
  EXPECT_EQ(second->stats.clean, second->stats.regions);
  EXPECT_EQ(second->assignment, first->assignment);

  // Perturb one region only: the others must stay clean AND byte-identical.
  std::vector<double> bumped = s.graph.features();
  for (size_t v = 0; v < bumped.size(); ++v) {
    if (s.initial[v] == 0) bumped[v] = bumped[v] * 3.0 + 1.0;
  }
  auto third = engine->Refresh(bumped);
  ASSERT_TRUE(third.ok());
  EXPECT_GE(third->stats.dirty, 1);
  EXPECT_LT(third->stats.dirty, third->stats.regions);
  for (size_t v = 0; v < bumped.size(); ++v) {
    if (s.initial[v] != 0) {
      EXPECT_EQ(third->assignment[v], second->assignment[v]) << "node " << v;
    }
  }
}

TEST(IncrementalRepartitionerTest, WarmStartAccounting) {
  Fixture s = MakeSetup(14);
  DistributedRepartitionOptions options = IncrementalOptions();
  options.trigger_ratio = 0.0;  // every region re-cut on every refresh
  options.boundary_delta_ratio = 0.0;
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  std::vector<std::vector<double>> series = MakeSeries(s, 2);

  auto first = engine->Refresh(series[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.warm_started, 0);  // nothing cached yet

  // AG embeds the region itself, so the cached warm vector's dimension
  // always matches on the next cut: every re-cut region warm-starts.
  auto second = engine->Refresh(series[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.dirty, second->stats.regions);
  EXPECT_GT(second->stats.warm_started, 0);
  EXPECT_EQ(second->stats.warm_rejected, 0);
  EXPECT_TRUE(
      CheckPartitionValidity(s.graph.adjacency(), second->assignment).ok());
}

TEST(IncrementalRepartitionerTest, SaveLoadCacheRoundTrip) {
  Fixture s = MakeSetup(15);
  std::vector<std::vector<double>> series = MakeSeries(s, 3);
  DistributedRepartitionOptions options = IncrementalOptions();

  auto a = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Refresh(series[0]).ok());
  ASSERT_TRUE(a->Refresh(series[1]).ok());
  std::string path = testing::TempDir() + "/rpinc_roundtrip.cache";
  ASSERT_TRUE(a->SaveCache(path).ok());

  // A fresh engine that adopts the cache must continue the history exactly.
  auto b = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->LoadCache(path));
  EXPECT_EQ(b->num_refreshes(), a->num_refreshes());
  auto from_a = a->Refresh(series[2]);
  auto from_b = b->Refresh(series[2]);
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(from_a->assignment, from_b->assignment);
  EXPECT_EQ(from_a->stats.dirty, from_b->stats.dirty);

  // A corrupt byte is detected by the envelope; the engine stays cold.
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), {});
  }
  blob[blob.size() / 2] ^= 0x40;
  std::string bad_path = testing::TempDir() + "/rpinc_corrupt.cache";
  ASSERT_TRUE(AtomicWriteFile(bad_path, blob).ok());
  auto c = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->LoadCache(bad_path));
  EXPECT_FALSE(c->warnings().empty());

  // Differently-keyed options (another trigger) must not adopt the cache.
  DistributedRepartitionOptions other = options;
  other.trigger_ratio = 0.25;
  auto d = IncrementalRepartitioner::Create(s.graph, s.initial, other);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->LoadCache(path));
  EXPECT_EQ(d->num_refreshes(), 0);
}

// A valid envelope around an rpinc payload with trailing data (an extra
// field on the header line, or a junk line after the last region) is
// refused like any corrupt cache: warning, cold start, never an error.
TEST(IncrementalRepartitionerTest, TrailingDataInValidCacheColdStarts) {
  Fixture s = MakeSetup(15);
  std::vector<std::vector<double>> series = MakeSeries(s, 1);
  DistributedRepartitionOptions options = IncrementalOptions();
  auto a = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Refresh(series[0]).ok());
  const std::string path = testing::TempDir() + "/rpinc_trailing.cache";
  ASSERT_TRUE(a->SaveCache(path).ok());
  auto payload = ReadArtifact(path);
  ASSERT_TRUE(payload.ok());
  // One extra field on the last region's warm-vector line.
  std::string widened = *payload;
  widened.insert(widened.size() - 1, " 0000000000000000");

  for (const std::string& mutated : {*payload + "region 99 junk\n", widened}) {
    ASSERT_TRUE(WriteArtifact(path, "rpinc", 1, mutated).ok());
    auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_FALSE(engine->LoadCache(path));
    EXPECT_EQ(engine->num_refreshes(), 0);
    ASSERT_EQ(engine->warnings().size(), 1u);
    EXPECT_NE(engine->warnings()[0].find("cold start"), std::string::npos);
  }
}

TEST(IncrementalRepartitionerTest, WarmStartCorruptionFaultColdStarts) {
  // An armed kWarmStartCorruption refresh must behave exactly like a run
  // that never had warm starts: same bytes, zero warm installs.
  Fixture s = MakeSetup(16);
  std::vector<std::vector<double>> series = MakeSeries(s, 2);
  DistributedRepartitionOptions warm = IncrementalOptions();
  warm.trigger_ratio = 0.0;
  warm.boundary_delta_ratio = 0.0;
  DistributedRepartitionOptions cold = warm;
  cold.warm_start_embeddings = false;

  auto with_fault = IncrementalRepartitioner::Create(s.graph, s.initial, warm);
  auto never_warm = IncrementalRepartitioner::Create(s.graph, s.initial, cold);
  ASSERT_TRUE(with_fault.ok());
  ASSERT_TRUE(never_warm.ok());
  ASSERT_TRUE(with_fault->Refresh(series[0]).ok());
  ASSERT_TRUE(never_warm->Refresh(series[0]).ok());

  FaultInjector injector(21);
  injector.Arm(FaultSite::kWarmStartCorruption, 1);
  ScopedFaultInjector scoped(&injector);
  auto faulted = with_fault->Refresh(series[1]);
  auto reference = never_warm->Refresh(series[1]);
  ASSERT_TRUE(faulted.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(injector.fire_count(FaultSite::kWarmStartCorruption), 1);
  EXPECT_EQ(faulted->stats.warm_started, 0);
  EXPECT_EQ(faulted->assignment, reference->assignment);
  EXPECT_FALSE(with_fault->warnings().empty());
}

TEST(IncrementalRepartitionerTest, DirtyDetectOverflowMarksAllDirty) {
  Fixture s = MakeSetup(17);
  DistributedRepartitionOptions options = IncrementalOptions();
  options.trigger_ratio = 100.0;  // normally nothing would ever be dirty
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial, options);
  ASSERT_TRUE(engine.ok());
  auto quiet = engine->Refresh(s.graph.features());
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->stats.dirty, 0);

  FaultInjector injector(22);
  injector.Arm(FaultSite::kDirtyDetectOverflow, 1);
  ScopedFaultInjector scoped(&injector);
  auto flooded = engine->Refresh(s.graph.features());
  ASSERT_TRUE(flooded.ok());
  EXPECT_EQ(injector.fire_count(FaultSite::kDirtyDetectOverflow), 1);
  EXPECT_EQ(flooded->stats.dirty, flooded->stats.regions);
  EXPECT_TRUE(
      CheckPartitionValidity(s.graph.adjacency(), flooded->assignment).ok());
  EXPECT_FALSE(engine->warnings().empty());
}

TEST(IncrementalRepartitionerTest, RefreshValidatesDensities) {
  Fixture s = MakeSetup(18);
  auto engine = IncrementalRepartitioner::Create(s.graph, s.initial,
                                                 IncrementalOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Refresh({1.0, 2.0}).ok());
}

}  // namespace
}  // namespace roadpart
