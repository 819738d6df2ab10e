#include "core/supergraph_miner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "cluster/kmeans1d.h"
#include "cluster/optimality.h"
#include "graph/connected_components.h"
#include "graph/graph_algos.h"
#include "linalg/dense_matrix.h"

namespace roadpart {

double SuperlinkWeight(double feature_p, double feature_q, int num_links,
                       double sigma_sq, SuperlinkWeightScheme scheme) {
  RP_CHECK(num_links > 0);
  double gauss = 1.0;
  if (sigma_sq > 0.0) {
    double diff = feature_p - feature_q;
    gauss = std::exp(-(diff * diff) / (2.0 * sigma_sq));
  }
  switch (scheme) {
    case SuperlinkWeightScheme::kPaperEq3:
      // sqrt((1/|L|) * sum_L gauss^2) with identical terms == gauss.
      return gauss;
    case SuperlinkWeightScheme::kLinkCountScaled:
      return gauss * std::sqrt(static_cast<double>(num_links));
  }
  return gauss;
}

Result<Supergraph> MineSupergraph(const RoadGraph& road_graph,
                                  const SupergraphMinerOptions& options,
                                  SupergraphMiningReport* report) {
  const CsrGraph& graph = road_graph.adjacency();
  const std::vector<double>& features = road_graph.features();
  const int n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty road graph");
  if (options.sample_size > 0 && options.sample_size < 3) {
    return Status::InvalidArgument(StrPrintf(
        "sample_size=%d: need >= 3 (or <= 0 to disable sampling)",
        options.sample_size));
  }
  // eta lies in [0, 1]: a threshold outside it (or NaN) would silently turn
  // Algorithm 2 off or split every non-uniform supernode.
  const double stability = options.stability.threshold;
  if (!(stability >= 0.0 && stability <= 1.0)) {
    return Status::InvalidArgument(StrPrintf(
        "stability threshold=%g: need a value in [0, 1] (0 disables "
        "splitting)",
        stability));
  }
  if (std::isnan(options.mcg_threshold_absolute) ||
      std::isnan(options.mcg_threshold_fraction)) {
    return Status::InvalidArgument(StrPrintf(
        "MCG threshold is NaN (absolute=%g, fraction=%g)",
        options.mcg_threshold_absolute, options.mcg_threshold_fraction));
  }

  SupergraphMiningReport local_report;
  SupergraphMiningReport& rep = report != nullptr ? *report : local_report;

  // --- Phase A: MCG sweep over kappa on (sampled) feature values. ---
  // Every kappa is an independent clustering of the same data, so the sweep
  // shares one Sorted1DWorkspace (one sort + prefix-sum pass instead of one
  // per kappa) and fans the kappas out through ParallelForTasks. Each task
  // writes only its own slot of the kappa-indexed result arrays, and the
  // post-join consumption loops run in ascending kappa order — thread counts
  // can never reorder a rounding sequence, so the sweep stays bit-identical
  // to a serial run (the contract of common/parallel.h).
  Timer sweep_timer;
  std::vector<double> sweep_values = features;
  if (options.sample_size > 0 &&
      n > options.sample_size) {
    Rng rng(options.seed);
    rng.Shuffle(sweep_values);
    sweep_values.resize(options.sample_size);
  }
  const int max_kappa =
      std::min<int>(options.max_kappa,
                    static_cast<int>(sweep_values.size()));
  if (max_kappa < 2) {
    return Status::InvalidArgument("too few feature values for a kappa sweep");
  }
  rep.effective_max_kappa = max_kappa;

  const int num_sweep = max_kappa - 1;  // kappa = 2 .. max_kappa inclusive
  rep.kappas.resize(num_sweep);
  rep.mcg.assign(num_sweep, 0.0);
  {
    const Sorted1DWorkspace sweep_workspace(sweep_values);
    const double sweep_mean = GlobalMean(sweep_values);
    std::vector<Status> sweep_status(num_sweep);
    ParallelForTasks(num_sweep, [&](int i) {
      const int kappa = i + 2;
      rep.kappas[i] = kappa;
      auto km = KMeans1D(sweep_workspace, kappa);
      if (!km.ok()) {
        sweep_status[i] = km.status();
        return;
      }
      auto mcg = ModeratedClusteringGain(sweep_values, km->assignment, kappa,
                                         sweep_mean);
      if (!mcg.ok()) {
        sweep_status[i] = mcg.status();
        return;
      }
      rep.mcg[i] = *mcg;
    });
    for (const Status& status : sweep_status) {
      if (!status.ok()) return status;
    }
  }

  double best_mcg = 0.0;
  size_t best_idx = 0;
  for (size_t i = 0; i < rep.mcg.size(); ++i) {
    best_mcg = std::max(best_mcg, rep.mcg[i]);
    if (rep.mcg[i] > rep.mcg[best_idx]) best_idx = i;
  }

  double threshold = options.mcg_threshold_absolute >= 0.0
                         ? options.mcg_threshold_absolute
                         : options.mcg_threshold_fraction * best_mcg;
  rep.threshold = threshold;

  if (best_mcg <= 0.0) {
    // Degenerate sweep (e.g. constant densities): every MCG is 0, so any
    // threshold derived from the curve shortlists either everything (the
    // historical bug: fraction * 0 == 0 passed all kappas to Phase B) or
    // nothing. Either way the curve carries no signal — shortlist only the
    // arg-max kappa (ties resolve to the smallest).
    rep.shortlisted_kappas.push_back(rep.kappas[best_idx]);
  } else {
    for (size_t i = 0; i < rep.kappas.size(); ++i) {
      if (rep.mcg[i] >= threshold) {
        rep.shortlisted_kappas.push_back(rep.kappas[i]);
      }
    }
    if (rep.shortlisted_kappas.empty()) {
      // Threshold above every observed MCG: fall back to the arg-max kappa.
      rep.shortlisted_kappas.push_back(rep.kappas[best_idx]);
    }
  }
  rep.sweep_seconds = sweep_timer.Seconds();

  // --- Phase B: full-data clustering per shortlisted kappa; pick the
  // configuration with the fewest label-constrained connected components
  // (Algorithm 1 lines 10-16). ---
  // Only the winner's component labels are ever used, so every kappa is
  // scored by a count alone: 1-D k-means clusters are contiguous runs of
  // the shared sort order, and BucketComponentCounter counts components
  // over those cut points by union-find on a rank-space edge list built
  // once. The counts share their walks over that list, one walk per group
  // of kCountGroupWidth kappas. Same fan-out recipe as Phase A (one task
  // per shortlisted kappa, then one per group, each writing its own slots;
  // winner selected afterwards in shortlist order), so the choice is
  // identical to the serial scan at any thread count. The winner alone is
  // labelled, by the counter's union-find, numbered as the BFS of
  // LabelConstrainedComponents would number it.
  Timer cluster_timer;
  const int num_shortlisted = static_cast<int>(rep.shortlisted_kappas.size());
  rep.component_counts.assign(num_shortlisted, 0);
  std::vector<int>& counts = rep.component_counts;
  int best = -1;
  std::vector<int> best_cluster_of;
  std::vector<double> best_means;
  ComponentLabels best_labels;
  {
    const Sorted1DWorkspace full_workspace(features);
    const BucketComponentCounter counter(graph, full_workspace.order());
    // Every shortlisted kappa is at most max_kappa <= the sweep size <= n.
    std::vector<std::vector<int>> cuts(num_shortlisted);
    std::vector<std::vector<double>> means(num_shortlisted);
    std::vector<Status> cluster_status(num_shortlisted);
    ParallelForTasks(num_shortlisted, [&](int i) {
      auto km = KMeans1DCuts(full_workspace, rep.shortlisted_kappas[i]);
      if (!km.ok()) {
        cluster_status[i] = km.status();
        return;
      }
      cuts[i] = std::move(km->cuts);
      means[i] = std::move(km->means);
    });
    for (const Status& status : cluster_status) {
      if (!status.ok()) return status;
    }
    constexpr int kWidth = BucketComponentCounter::kCountGroupWidth;
    ParallelForTasks((num_shortlisted + kWidth - 1) / kWidth, [&](int g) {
      const int begin = g * kWidth;
      const int width = std::min(kWidth, num_shortlisted - begin);
      counter.CountComponents(std::span(cuts).subspan(begin, width),
                              std::span(counts).subspan(begin, width));
    });

    bool best_qualifies = false;
    for (int i = 0; i < num_shortlisted; ++i) {
      bool qualifies = counts[i] >= options.min_supernodes;
      // Fewest components wins among qualifying configurations; if none
      // qualifies yet, the one with the MOST components is the best fallback.
      bool better;
      if (qualifies == best_qualifies) {
        better = qualifies ? counts[i] < counts[best]
                           : best < 0 || counts[i] > counts[best];
      } else {
        better = qualifies;
      }
      if (better) {
        best = i;
        best_qualifies = qualifies;
      }
    }
    best_labels = counter.Label(cuts[best]);
    best_cluster_of = AssignFromCuts(full_workspace, cuts[best]);
    best_means = std::move(means[best]);
  }
  const int best_components = best_labels.num_components;
  const std::vector<int> best_component_of = std::move(best_labels.component);
  rep.chosen_kappa = rep.shortlisted_kappas[best];
  rep.supernodes_before_stability = best_components;
  rep.cluster_seconds = cluster_timer.Seconds();

  // Supernode member lists; feature = mean of the k-means cluster the
  // component's nodes belong to (lines 17-20).
  std::vector<std::vector<int>> members(best_components);
  for (int v = 0; v < n; ++v) members[best_component_of[v]].push_back(v);

  // --- Phase C: optional stability splitting (Algorithm 2). ---
  bool stability_applied = options.stability.threshold > 0.0;
  if (stability_applied) {
    members = StabilitySplit(std::move(members), features, graph,
                             options.stability);
  }
  rep.supernodes_after_stability = static_cast<int>(members.size());

  std::vector<Supernode> supernodes(members.size());
  for (size_t s = 0; s < members.size(); ++s) {
    supernodes[s].members = std::move(members[s]);
    if (stability_applied) {
      // Split supernodes take their member mean as the new feature.
      double mean = 0.0;
      for (int v : supernodes[s].members) mean += features[v];
      supernodes[s].feature =
          mean / static_cast<double>(supernodes[s].members.size());
    } else {
      supernodes[s].feature =
          best_means[best_cluster_of[supernodes[s].members.front()]];
    }
  }

  rep.stability_values.resize(supernodes.size());
  for (size_t s = 0; s < supernodes.size(); ++s) {
    std::vector<double> f;
    f.reserve(supernodes[s].members.size());
    for (int v : supernodes[s].members) f.push_back(features[v]);
    rep.stability_values[s] = SupernodeStability(f);
  }

  // --- Phase D: superlink establishment and weighting (lines 21-25). ---
  Timer superlink_timer;
  std::vector<int> owner(n, -1);
  for (size_t s = 0; s < supernodes.size(); ++s) {
    for (int v : supernodes[s].members) owner[v] = static_cast<int>(s);
  }
  // Flat accumulation: gather one packed (p, q) key per cross edge, sort,
  // and count runs. The sorted key order equals the old ordered-map
  // iteration order, at a fraction of the allocation and cache cost. Both
  // halves of a key are supernode ids, so the radix sort only pays for the
  // bytes they use.
  std::vector<uint64_t> cross_keys;
  cross_keys.reserve(static_cast<size_t>(graph.num_edges()));
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) {
      if (u >= v) continue;
      int p = owner[u];
      int q = owner[v];
      if (p == q) continue;
      if (p > q) std::swap(p, q);
      cross_keys.push_back((static_cast<uint64_t>(p) << 32) |
                           static_cast<uint32_t>(q));
    }
  }
  std::vector<int> by_key;
  StableRadixSortIndices(static_cast<int>(cross_keys.size()),
                         [&cross_keys](int i) { return cross_keys[i]; },
                         &by_key);

  std::vector<double> sfeatures(supernodes.size());
  for (size_t s = 0; s < supernodes.size(); ++s) {
    sfeatures[s] = supernodes[s].feature;
  }
  const double sigma_sq = Variance(sfeatures);

  std::vector<Edge> superlinks;
  for (size_t i = 0; i < by_key.size();) {
    const uint64_t key = cross_keys[by_key[i]];
    size_t j = i;
    while (j < by_key.size() && cross_keys[by_key[j]] == key) ++j;
    const int p = static_cast<int>(key >> 32);
    const int q = static_cast<int>(key & 0xffffffffu);
    double w = SuperlinkWeight(sfeatures[p], sfeatures[q],
                               static_cast<int>(j - i), sigma_sq,
                               options.weight_scheme);
    superlinks.push_back({p, q, w});
    i = j;
  }
  RP_ASSIGN_OR_RETURN(
      CsrGraph links,
      CsrGraph::FromEdges(static_cast<int>(supernodes.size()), superlinks));
  rep.superlink_seconds = superlink_timer.Seconds();

  return Supergraph::Create(std::move(supernodes), std::move(links), n);
}

}  // namespace roadpart
