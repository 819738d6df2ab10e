#ifndef ROADPART_CORE_SUPERGRAPH_MINER_H_
#define ROADPART_CORE_SUPERGRAPH_MINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/stability.h"
#include "core/supergraph.h"
#include "network/road_graph.h"

namespace roadpart {

/// How superlink weights are computed.
enum class SuperlinkWeightScheme {
  /// Equation 3 exactly as printed. Every term of the per-link sum depends
  /// only on the two supernode features, so the RMS collapses to a single
  /// Gaussian similarity exp(-(f_p - f_q)^2 / (2 sigma^2)).
  kPaperEq3,
  /// Link-count-aware variant matching the prose ("larger number of links …
  /// lead to higher superlink weight"): the Eq. 3 Gaussian scaled by
  /// sqrt(|L_pq|). Used by the superlink ablation bench.
  kLinkCountScaled,
};

/// Options for road-supergraph mining (Algorithm 1).
struct SupergraphMinerOptions {
  /// Largest kappa evaluated in the k-means sweep (the paper sweeps in
  /// principle to n_r - 1 but observes the optimum at small kappa; Fig. 5
  /// evaluates kappa up to ~30).
  int max_kappa = 30;
  /// epsilon_theta as an absolute MCG threshold. Negative = derive from
  /// `mcg_threshold_fraction` instead. The paper uses absolute values (2000
  /// for M1, 5000 for M2) chosen after looking at the curve; the fractional
  /// form automates that choice.
  double mcg_threshold_absolute = -1.0;
  /// epsilon_theta as a fraction of the maximum MCG observed over the sweep.
  double mcg_threshold_fraction = 0.85;
  /// MCG sweep runs on a random sample of at most this many feature values
  /// (Section 4.1 does exactly this to keep repeated k-means affordable);
  /// the final clustering always runs on the full data. <=0 disables
  /// sampling; positive values below 3 are rejected (a sweep needs at least
  /// kappa = 2 over 3 values to say anything).
  int sample_size = 5000;
  /// Lower bound on the supernode count: among the shortlisted clustering
  /// configurations, ones producing fewer connected components than this are
  /// skipped (unless none qualifies, in which case the configuration with
  /// the most components wins). The partitioner sets this to k so the second
  /// level always has enough supernodes to partition. 0 = paper behaviour
  /// (always fewest components).
  int min_supernodes = 0;
  /// Stability pass (Section 4.3.2); threshold 0 disables it. A threshold
  /// outside [0, 1] or NaN is rejected, as is a NaN MCG threshold.
  StabilityOptions stability;
  SuperlinkWeightScheme weight_scheme = SuperlinkWeightScheme::kPaperEq3;
  uint64_t seed = 7;
};

/// Diagnostics for Figure 5 / Figure 6 style reporting.
struct SupergraphMiningReport {
  std::vector<int> kappas;             ///< evaluated kappa values
  std::vector<double> mcg;             ///< MCG at each kappa (sampled data)
  std::vector<int> shortlisted_kappas; ///< kappas with MCG >= threshold
  /// Label-constrained component count of each shortlisted kappa's
  /// full-data clustering, one per entry of shortlisted_kappas and in its
  /// order; the winner's entry is supernodes_before_stability.
  std::vector<int> component_counts;
  double threshold = 0.0;              ///< resolved epsilon_theta
  /// Inclusive ceiling of the sweep actually run: min(options.max_kappa,
  /// number of (sampled) sweep values).
  int effective_max_kappa = 0;
  int chosen_kappa = 0;
  int supernodes_before_stability = 0;
  int supernodes_after_stability = 0;
  std::vector<double> stability_values;  ///< eta per final supernode
  /// Wall-clock breakdown of the mining fast path (bench_table3_runtime):
  /// Phase A sampled kappa sweep, Phase B full-data clustering +
  /// components, Phase D superlink accumulation.
  double sweep_seconds = 0.0;
  double cluster_seconds = 0.0;
  double superlink_seconds = 0.0;
};

/// Mines the condensed road supergraph from a road graph (Algorithm 1):
/// 1-D k-means sweep scored by MCG, supernode creation as label-constrained
/// connected components (fewest components wins), optional stability
/// splitting, then superlink establishment with Equation 3 weights.
Result<Supergraph> MineSupergraph(const RoadGraph& road_graph,
                                  const SupergraphMinerOptions& options = {},
                                  SupergraphMiningReport* report = nullptr);

/// Computes the Equation 3 weight for one supernode pair.
/// `sigma_sq` is the variance of supernode features around their global mean.
double SuperlinkWeight(double feature_p, double feature_q, int num_links,
                       double sigma_sq, SuperlinkWeightScheme scheme);

}  // namespace roadpart

#endif  // ROADPART_CORE_SUPERGRAPH_MINER_H_
