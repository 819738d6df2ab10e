#include "core/distributed_repartition.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/durable_io.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "graph/graph_algos.h"
#include "linalg/dense_matrix.h"

namespace roadpart {

namespace {

constexpr const char* kCacheFormat = "rpinc";
constexpr int kCacheVersion = 1;

// Population std-dev of the features indexed by `nodes`.
double RegionSpread(const std::vector<double>& features,
                    const std::vector<int>& nodes) {
  if (nodes.size() < 2) return 0.0;
  double mean = 0.0;
  for (int v : nodes) mean += features[v];
  mean /= static_cast<double>(nodes.size());
  double acc = 0.0;
  for (int v : nodes) {
    acc += (features[v] - mean) * (features[v] - mean);
  }
  return std::sqrt(acc / static_cast<double>(nodes.size()));
}

// Mean |densities[boundary[i]] - at_cut[i]|; 0 when there is no recorded
// boundary state (sizes must match — a mismatch means no comparable state).
double BoundaryShift(const std::vector<double>& densities,
                     const std::vector<int>& boundary,
                     const std::vector<double>& at_cut) {
  if (boundary.empty() || boundary.size() != at_cut.size()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < boundary.size(); ++i) {
    acc += std::fabs(densities[boundary[i]] - at_cut[i]);
  }
  return acc / static_cast<double>(boundary.size());
}

// The warm-start vector cached from an embedding: the column-sum Z.1 — a
// vector inside the span of the computed eigenvectors, which is exactly what
// a Lanczos start vector should be rich in. Zeroed/empty results are not
// cached (nothing to warm-start from).
std::vector<double> ColumnSumVector(const DenseMatrix& z) {
  std::vector<double> v(static_cast<size_t>(std::max(z.rows(), 0)), 0.0);
  for (int r = 0; r < z.rows(); ++r) {
    double acc = 0.0;
    for (int c = 0; c < z.cols(); ++c) acc += z(r, c);
    v[static_cast<size_t>(r)] = acc;
  }
  double norm = 0.0;
  for (double x : v) norm += x * x;
  if (!(norm > 0.0) || !std::isfinite(norm)) v.clear();
  return v;
}

}  // namespace

uint64_t IncrementalRepartitioner::CacheKey() const {
  // Topology + frozen region structure + output-affecting options. Features
  // are deliberately excluded: the cache is *state*, valid for any interval
  // of the same network under the same configuration.
  uint64_t key = Fnv1a64(CanonicalOptionsString(options_.partitioner));
  key = Fnv1a64(&num_nodes_, sizeof(num_nodes_), key);
  for (const std::vector<int>& region : regions_) {
    size_t size = region.size();
    key = Fnv1a64(&size, sizeof(size), key);
    if (!region.empty()) {
      key = Fnv1a64(region.data(), region.size() * sizeof(int), key);
    }
  }
  key = Fnv1a64(DoubleToBitsHex(options_.trigger_ratio), key);
  key = Fnv1a64(DoubleToBitsHex(options_.boundary_delta_ratio), key);
  return key;
}

Result<IncrementalRepartitioner> IncrementalRepartitioner::Create(
    const RoadGraph& road_graph, const std::vector<int>& region_assignment,
    const DistributedRepartitionOptions& options) {
  const int n = road_graph.num_nodes();
  if (static_cast<int>(region_assignment.size()) != n) {
    return Status::InvalidArgument(
        StrPrintf("assignment has %zu entries for %d nodes",
                  region_assignment.size(), n));
  }
  int num_regions = 0;
  for (int a : region_assignment) {
    if (a < 0) return Status::InvalidArgument("negative partition id");
    num_regions = std::max(num_regions, a + 1);
  }
  if (options.partitioner.k < 1) {
    return Status::InvalidArgument("per-region k must be >= 1");
  }

  IncrementalRepartitioner engine;
  engine.options_ = options;
  engine.num_nodes_ = n;
  engine.regions_ = GroupByAssignment(region_assignment, num_regions);
  engine.cache_.resize(engine.regions_.size());

  // Frozen per-region structure: induced topology (re-cut input) and
  // boundary nodes (dirty-detection input). Both depend only on the
  // adjacency and the region assignment, never on densities.
  engine.subgraphs_.reserve(engine.regions_.size());
  engine.boundaries_.reserve(engine.regions_.size());
  const CsrGraph& adjacency = road_graph.adjacency();
  for (const std::vector<int>& region : engine.regions_) {
    engine.subgraphs_.push_back(region.empty()
                                    ? CsrGraph()
                                    : adjacency.InducedSubgraph(region));
    std::vector<int> boundary;
    for (int v : region) {
      for (int u : adjacency.Neighbors(v)) {
        if (region_assignment[u] != region_assignment[v]) {
          boundary.push_back(v);
          break;
        }
      }
    }
    engine.boundaries_.push_back(std::move(boundary));
  }
  return engine;
}

Result<DistributedRepartitionResult> IncrementalRepartitioner::Refresh(
    const std::vector<double>& densities) {
  const int n = num_nodes_;
  if (static_cast<int>(densities.size()) != n) {
    return Status::InvalidArgument(
        StrPrintf("densities has %zu entries for %d nodes", densities.size(),
                  n));
  }
  const size_t num_regions = regions_.size();
  Timer total;
  Timer phase;

  DistributedRepartitionResult result;
  result.assignment.assign(n, -1);
  result.stats.region_info.reserve(num_regions);

  // --- Phase 1 (serial): dirty-region detection --------------------------
  // Serial so the two fault sites below are queried a fixed number of times
  // per refresh regardless of thread count.
  const double global_scale = std::sqrt(std::max(Variance(densities), 0.0));
  const bool detect_overflow = RP_FAULT_FIRES(FaultSite::kDirtyDetectOverflow);
  if (detect_overflow) {
    warnings_.push_back(
        "dirty-region detector overflow: marking every region dirty");
  }
  const bool warm_corrupt = RP_FAULT_FIRES(FaultSite::kWarmStartCorruption);
  if (warm_corrupt) {
    warnings_.push_back(
        "warm-start cache flagged corrupt: cold-starting every solve");
  }

  std::vector<double> spread_now(num_regions, 0.0);
  std::vector<int> dirty_list;
  std::vector<char> is_dirty(num_regions, 0);
  for (size_t r = 0; r < num_regions; ++r) {
    const std::vector<int>& region = regions_[r];
    if (region.empty()) continue;
    spread_now[r] = RegionSpread(densities, region);
    bool dirty;
    if (detect_overflow || options_.trigger_ratio <= 0.0) {
      // Overflow degrades to a safe over-recut; ratio <= 0 is the
      // historical always-recut configuration.
      dirty = true;
    } else if (!cache_[r].valid) {
      // No cached cut to reuse: the absolute-spread rule of the one-shot
      // entry point (uniform regions are cheap to keep whole either way).
      dirty = spread_now[r] > options_.trigger_ratio * global_scale;
    } else {
      dirty = std::fabs(spread_now[r] - cache_[r].spread_at_cut) >
              options_.trigger_ratio * global_scale;
      if (!dirty && options_.boundary_delta_ratio > 0.0) {
        dirty = BoundaryShift(densities, boundaries_[r],
                              cache_[r].boundary_at_cut) >
                options_.boundary_delta_ratio * global_scale;
      }
    }
    if (dirty) {
      is_dirty[r] = 1;
      dirty_list.push_back(static_cast<int>(r));
    }
  }
  result.stats.trigger_seconds = phase.Seconds();

  // --- Phase 2 (parallel): re-cut dirty regions --------------------------
  // One outcome slot per dirty region; workers write only their own slot, so
  // results are independent of scheduling. The inner partitioners are pinned
  // to 1 thread whenever this fan-out is parallel (see header policy).
  struct RegionOutcome {
    std::vector<int> local;      // per region-member sub-partition id
    int k = 1;                   // sub-partitions produced (1 = kept whole)
    bool repartitioned = false;
    bool warm_attempted = false;
    bool warm_used = false;
    StatusCode failure = StatusCode::kOk;  // why the re-cut was refused
    std::vector<double> new_warm;
    double seconds = 0.0;
  };
  const int dirty_count = static_cast<int>(dirty_list.size());
  int outer_threads =
      options_.num_threads > 0 ? options_.num_threads : DefaultParallelism();
  const bool outer_parallel = outer_threads > 1 && dirty_count > 1;

  phase.Restart();
  std::vector<RegionOutcome> slots(dirty_list.size());
  ParallelForTasks(
      dirty_count,
      [&](int slot) {
        Timer region_timer;
        const int r = dirty_list[static_cast<size_t>(slot)];
        const std::vector<int>& region = regions_[static_cast<size_t>(r)];
        RegionOutcome& out = slots[static_cast<size_t>(slot)];
        out.local.assign(region.size(), 0);
        if (options_.partitioner.k == 1 ||
            static_cast<int>(region.size()) <= options_.partitioner.k) {
          out.seconds = region_timer.Seconds();
          return;  // kept whole
        }
        std::vector<double> sub_features(region.size());
        for (size_t i = 0; i < region.size(); ++i) {
          sub_features[i] = densities[region[i]];
        }
        auto sub_rg =
            RoadGraph::FromParts(CsrGraph(subgraphs_[static_cast<size_t>(r)]),
                                 std::move(sub_features));
        if (!sub_rg.ok()) {
          // Keep whole on any local failure, but carry the typed code to the
          // serial merge so supervisors can see the degradation.
          out.failure = sub_rg.status().code();
          out.seconds = region_timer.Seconds();
          return;
        }
        PartitionerOptions popt = options_.partitioner;
        if (outer_parallel) popt.num_threads = 1;
        DenseMatrix embedding(0, 0);
        popt.embedding_sink = &embedding;
        const std::vector<double>& warm =
            cache_[static_cast<size_t>(r)].warm;
        if (options_.warm_start_embeddings && !warm_corrupt &&
            !warm.empty()) {
          out.warm_attempted = true;
          popt.spectral.lanczos.warm_start = &warm;
        }
        Partitioner partitioner(popt);
        auto outcome = partitioner.PartitionRoadGraph(*sub_rg);
        if (outcome.ok()) {
          out.local = std::move(outcome->assignment);
          out.k = outcome->k_final;
          out.repartitioned = out.k > 1;
        } else {
          out.failure = outcome.status().code();
        }
        // The solver only adopts a warm vector matching the cut target's
        // order; infer acceptance by comparing against the embedding the
        // run actually produced (its row count is that order).
        out.warm_used = out.warm_attempted && embedding.rows() > 0 &&
                        static_cast<size_t>(embedding.rows()) == warm.size();
        out.new_warm = ColumnSumVector(embedding);
        out.seconds = region_timer.Seconds();
      },
      options_.num_threads);
  result.stats.subpartition_seconds = phase.Seconds();

  // --- Phase 3 (serial): merge label spaces, update the cache ------------
  phase.Restart();
  std::vector<int> slot_of_region(num_regions, -1);
  for (int s = 0; s < dirty_count; ++s) {
    slot_of_region[static_cast<size_t>(dirty_list[static_cast<size_t>(s)])] =
        s;
  }
  int next_id = 0;
  for (size_t r = 0; r < num_regions; ++r) {
    const std::vector<int>& region = regions_[r];
    if (region.empty()) continue;
    RegionCache& cached = cache_[r];
    RegionRefreshInfo info;
    info.region = static_cast<int>(r);
    info.size = static_cast<int>(region.size());
    info.dirty = is_dirty[r] != 0;
    if (info.dirty) {
      RegionOutcome& out = slots[static_cast<size_t>(slot_of_region[r])];
      cached.valid = true;
      cached.repartitioned = out.repartitioned;
      cached.k = out.k;
      cached.local = std::move(out.local);
      cached.spread_at_cut = spread_now[r];
      cached.boundary_at_cut.resize(boundaries_[r].size());
      for (size_t i = 0; i < boundaries_[r].size(); ++i) {
        cached.boundary_at_cut[i] = densities[boundaries_[r][i]];
      }
      cached.warm = std::move(out.new_warm);
      info.warm_started = out.warm_used;
      info.seconds = out.seconds;
      info.failure = out.failure;
      result.stats.warm_started += out.warm_used ? 1 : 0;
      result.stats.warm_rejected +=
          (out.warm_attempted && !out.warm_used) ? 1 : 0;
      if (out.failure != StatusCode::kOk) {
        // Serial phase: the counters and warning list are mutated here, not
        // in the fan-out, so they stay exact at every thread count.
        ++result.stats.failed;
        if (result.stats.first_failure == StatusCode::kOk) {
          result.stats.first_failure = out.failure;
        }
        warnings_.push_back(
            StrPrintf("region %d re-cut failed (%s); kept whole",
                      static_cast<int>(r), StatusCodeKebab(out.failure)));
      }
      ++result.stats.dirty;
    } else {
      if (!cached.valid) {
        // Clean with nothing cached (cold, below the absolute trigger):
        // keep whole and record the state so later deltas are meaningful.
        cached.valid = true;
        cached.repartitioned = false;
        cached.k = 1;
        cached.local.assign(region.size(), 0);
        cached.spread_at_cut = spread_now[r];
        cached.boundary_at_cut.resize(boundaries_[r].size());
        for (size_t i = 0; i < boundaries_[r].size(); ++i) {
          cached.boundary_at_cut[i] = densities[boundaries_[r][i]];
        }
        cached.warm.clear();
      }
      ++result.stats.clean;
    }
    for (size_t i = 0; i < region.size(); ++i) {
      result.assignment[region[i]] = next_id + cached.local[i];
    }
    next_id += cached.k;
    info.repartitioned = cached.repartitioned && info.dirty;
    info.k = cached.k;
    if (info.repartitioned) ++result.regions_repartitioned;
    ++result.stats.regions;
    result.stats.region_info.push_back(info);
  }
  result.stats.merge_seconds = phase.Seconds();

  result.k_final = next_id;
  result.seconds = total.Seconds();
  ++refreshes_;
  return result;
}

Status IncrementalRepartitioner::SaveCache(const std::string& path) const {
  LineWriter out;
  out.Line("key").Hex(CacheKey());
  out.Line("regions").Int(static_cast<int64_t>(regions_.size()))
      .Tag("refreshes").Int(refreshes_);
  for (size_t r = 0; r < cache_.size(); ++r) {
    const RegionCache& c = cache_[r];
    out.Line("region").Int(static_cast<int64_t>(r))
        .Tag("valid").Int(c.valid ? 1 : 0)
        .Tag("repartitioned").Int(c.repartitioned ? 1 : 0)
        .Tag("k").Int(c.k)
        .Tag("spread").Double(c.spread_at_cut);
    out.Line("labels").IntVec(c.local);
    out.Line("boundary").DoubleVec(c.boundary_at_cut);
    out.Line("warm").DoubleVec(c.warm);
  }
  return WriteArtifact(path, kCacheFormat, kCacheVersion, out.Finish(),
                       options_.partitioner.checkpoint.retry);
}

bool IncrementalRepartitioner::LoadCache(const std::string& path) {
  // Decode into a scratch cache; only a fully valid artifact whose key
  // matches this engine is adopted.
  std::vector<RegionCache> scratch(regions_.size());
  int stored_refreshes = 0;
  Status loaded = [&]() -> Status {
    RP_ASSIGN_OR_RETURN(
        LineCursor in,
        ReadKeyedArtifact(path, kCacheFormat, "key", CacheKey(),
                          options_.partitioner.checkpoint.retry));
    RP_ASSIGN_OR_RETURN(int stored_regions, ReadInt(in, "regions"));
    RP_ASSIGN_OR_RETURN(stored_refreshes, in.IntField("refreshes"));
    if (stored_regions != num_regions()) {
      return Status::Corruption("region count mismatch");
    }
    for (size_t r = 0; r < scratch.size(); ++r) {
      RegionCache& c = scratch[r];
      RP_ASSIGN_OR_RETURN(int id, ReadInt(in, "region"));
      RP_ASSIGN_OR_RETURN(int valid, in.IntField("valid"));
      RP_ASSIGN_OR_RETURN(int repartitioned, in.IntField("repartitioned"));
      RP_ASSIGN_OR_RETURN(c.k, in.IntField("k"));
      RP_ASSIGN_OR_RETURN(c.spread_at_cut, in.DoubleField("spread"));
      if (id != static_cast<int>(r) || c.k < 0) {
        return Status::Corruption("bad region header");
      }
      c.valid = valid != 0;
      c.repartitioned = repartitioned != 0;
      RP_ASSIGN_OR_RETURN(c.local, ReadIntVec(in, "labels"));
      if (c.valid && c.local.size() != regions_[r].size()) {
        return Status::Corruption("label count mismatch");
      }
      for (int label : c.local) {
        if (label < 0 || label >= std::max(c.k, 1)) {
          return Status::Corruption("bad label value");
        }
      }
      RP_ASSIGN_OR_RETURN(c.boundary_at_cut, ReadDoubleVec(in, "boundary"));
      RP_ASSIGN_OR_RETURN(c.warm, ReadDoubleVec(in, "warm"));
    }
    return in.Finish();
  }();
  if (!loaded.ok()) {
    warnings_.push_back("incremental cache not adopted (" +
                        loaded.ToString() + "); cold start");
    return false;
  }
  cache_ = std::move(scratch);
  refreshes_ = stored_refreshes;
  return true;
}

}  // namespace roadpart
