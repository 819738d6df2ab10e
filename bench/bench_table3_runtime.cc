// Reproduces Table 3: running time in seconds, broken down into the three
// framework modules (1: road graph construction, 2: supergraph mining,
// 3: supergraph partitioning), for D1, M1, M2 and M3.
//
// Paper (Matlab, 2014 hardware): D1 <1s; M1 9/54/66 = 129s; M2 24/848/1033 =
// 1905s; M3 137/2044/3726 = 5907s. Absolute numbers differ (C++ vs Matlab,
// different hardware); the reproduced shape is module3 >= module2 >> module1
// and superlinear growth with network size.

#include <cstdio>

#include "bench/bench_common.h"

using namespace roadpart;
using namespace roadpart::bench;

int main() {
  std::printf("=== Table 3: running time (seconds) ===\n\n");
  std::printf("%-8s %10s %10s %10s %10s %8s\n", "Module", "D1", "M1", "M2",
              "M3", "");

  const DatasetPreset presets[] = {DatasetPreset::kD1, DatasetPreset::kM1,
                                   DatasetPreset::kM2, DatasetPreset::kM3};
  double module1[4];
  double module2[4];
  double module3[4];
  double mine_sweep[4];
  double mine_cluster[4];
  double mine_superlink[4];
  int supernodes[4];
  int k_for[4] = {6, 4, 5, 5};  // the paper's optimal k per dataset

  for (int d = 0; d < 4; ++d) {
    RoadNetwork net = MakeCongestedDataset(presets[d], 17);
    PartitionerOptions options;
    options.scheme = Scheme::kASG;
    options.k = k_for[d];
    options.seed = 1;
    auto outcome = Partitioner(options).PartitionNetwork(net);
    RP_CHECK(outcome.ok());
    module1[d] = outcome->module1_seconds;
    module2[d] = outcome->module2_seconds;
    module3[d] = outcome->module3_seconds;
    mine_sweep[d] = outcome->mining_report.sweep_seconds;
    mine_cluster[d] = outcome->mining_report.cluster_seconds;
    mine_superlink[d] = outcome->mining_report.superlink_seconds;
    supernodes[d] = outcome->num_supernodes;
  }

  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   (paper: <1 / 9 / 24 / 137)\n",
              "1", module1[0], module1[1], module1[2], module1[3]);
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   (paper: <1 / 54 / 848 / 2044)\n",
              "2", module2[0], module2[1], module2[2], module2[3]);
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   (paper: <1 / 66 / 1033 / 3726)\n",
              "3", module3[0], module3[1], module3[2], module3[3]);
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   (paper: <1 / 129 / 1905 / 5907)\n",
              "Total", module1[0] + module2[0] + module3[0],
              module1[1] + module2[1] + module3[1],
              module1[2] + module2[2] + module3[2],
              module1[3] + module2[3] + module3[3]);
  std::printf("\nModule 2 breakdown (mining fast path):\n");
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   kappa sweep (Phase A)\n",
              "2a", mine_sweep[0], mine_sweep[1], mine_sweep[2],
              mine_sweep[3]);
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   full-data clustering + "
              "components (Phase B)\n",
              "2b", mine_cluster[0], mine_cluster[1], mine_cluster[2],
              mine_cluster[3]);
  std::printf("%-8s %10.3f %10.3f %10.3f %10.3f   superlink accumulation "
              "(Phase D)\n",
              "2c", mine_superlink[0], mine_superlink[1], mine_superlink[2],
              mine_superlink[3]);

  std::printf("\nSupernodes mined: %d / %d / %d / %d — partitioning cost "
              "follows the supergraph order, not the raw segment count.\n",
              supernodes[0], supernodes[1], supernodes[2], supernodes[3]);
  double totals[4];
  for (int d = 0; d < 4; ++d) {
    totals[d] = module1[d] + module2[d] + module3[d];
  }
  bool grows = totals[0] < totals[1] && totals[1] < totals[2];
  bool module1_cheapest = true;
  for (int d = 0; d < 4; ++d) {
    module1_cheapest &= module1[d] <= module2[d] + module3[d];
  }
  std::printf("Shape check: cost grows with network size (D1<M1<M2: %s) and "
              "module 1 is the cheapest (%s), as in the paper.\n",
              grows ? "yes" : "no", module1_cheapest ? "yes" : "no");
  return 0;
}
