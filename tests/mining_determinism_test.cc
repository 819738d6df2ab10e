// Differential tests for the supergraph-mining fast path: MineSupergraph is
// run at every ThreadSweep() count (1, 2, 8) and every output — supernode
// membership, features, superlink topology and weights, and the full mining
// report including the MCG sweep curve — must be bit-identical to the serial
// run. The Phase A kappa sweep, the Phase B per-shortlisted-kappa
// clustering and the Phase B component counts (one task per group of
// BucketComponentCounter::kCountGroupWidth kappas, each writing only its
// own slots) all fan out through ParallelForTasks, and the winner is
// labelled from the counter's union-find, so this suite is the regression
// check on that fast path's determinism contract.

#include <gtest/gtest.h>

#include "differential/differential_harness.h"

namespace roadpart {
namespace {

using differential::ExpectMiningThreadInvariant;
using differential::NetworkCase;
using differential::SeededNetworks;

TEST(MiningDeterminism, DefaultOptionsAllNetworks) {
  for (const NetworkCase& net : SeededNetworks()) {
    ExpectMiningThreadInvariant(net, SupergraphMinerOptions{},
                                "mining defaults");
  }
}

TEST(MiningDeterminism, StabilitySplittingEnabled) {
  SupergraphMinerOptions options;
  options.stability.threshold = 0.6;
  for (const NetworkCase& net : SeededNetworks(11)) {
    ExpectMiningThreadInvariant(net, options, "mining with stability split");
  }
}

TEST(MiningDeterminism, MinSupernodesFloor) {
  SupergraphMinerOptions options;
  options.min_supernodes = 8;
  for (const NetworkCase& net : SeededNetworks(13)) {
    ExpectMiningThreadInvariant(net, options, "mining with min_supernodes");
  }
}

TEST(MiningDeterminism, SamplingDisabledFullSweep) {
  // No sampling: Phase A runs on the full feature vector, which both widens
  // the shared workspace and (on the grid/city cases) lifts the effective
  // kappa ceiling to options.max_kappa.
  SupergraphMinerOptions options;
  options.sample_size = 0;
  options.max_kappa = 12;
  for (const NetworkCase& net : SeededNetworks(17)) {
    ExpectMiningThreadInvariant(net, options, "mining without sampling");
  }
}

TEST(MiningDeterminism, AbsoluteThresholdWideShortlist) {
  // A tiny absolute threshold shortlists nearly every kappa, maximising the
  // Phase B fan-out (several count groups and a shorter last one) the
  // parallel path must keep deterministic.
  SupergraphMinerOptions options;
  options.mcg_threshold_absolute = 1e-9;
  for (const NetworkCase& net : SeededNetworks(19)) {
    ExpectMiningThreadInvariant(net, options, "mining with wide shortlist");
  }
}

TEST(MiningDeterminism, DegenerateConstantDensities) {
  // Constant densities drive every MCG to zero; the degenerate-sweep fix
  // shortlists a single kappa, and that choice must not depend on threads.
  for (NetworkCase& net : SeededNetworks(23)) {
    std::vector<double> flat(net.network.num_segments(), 3.5);
    ASSERT_TRUE(net.network.SetDensities(flat).ok());
    ExpectMiningThreadInvariant(net, SupergraphMinerOptions{},
                                "mining constant densities");
  }
}

}  // namespace
}  // namespace roadpart
