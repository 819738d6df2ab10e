#ifndef ROADPART_TESTS_KMEANS1D_DP_H_
#define ROADPART_TESTS_KMEANS1D_DP_H_

#include <vector>

#include "cluster/kmeans1d.h"
#include "common/status.h"

namespace roadpart {

/// Globally optimal 1-D k-means by dynamic programming with the
/// divide-and-conquer monotonicity speedup — O(k n log n) after sorting.
/// Lloyd's algorithm (KMeans1D) can stop in a local optimum; this solver is
/// the oracle cluster_kmeans_dp_test holds it to. Clusters come out as
/// contiguous runs of the sorted values, which is always true of some
/// optimal solution in one dimension.
Result<KMeans1DResult> KMeans1DOptimal(const std::vector<double>& values,
                                       int k);

}  // namespace roadpart

#endif  // ROADPART_TESTS_KMEANS1D_DP_H_
