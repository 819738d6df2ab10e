#ifndef ROADPART_CLUSTER_KMEANS1D_H_
#define ROADPART_CLUSTER_KMEANS1D_H_

#include <vector>

#include "common/status.h"

namespace roadpart {

/// Result of a 1-D k-means run.
///
/// Contract for duplicate-heavy inputs: when the data holds fewer distinct
/// values than the requested k, the effective cluster count is capped at the
/// distinct-value count. `means` then has `means.size() < k` entries, every
/// cluster id in [0, means.size()) is used by at least one point, and no
/// cluster is silently empty with a stale seed mean (the historical failure
/// mode this contract replaces). Callers that require exactly k clusters must
/// check `means.size()`.
struct KMeans1DResult {
  std::vector<int> assignment;  ///< cluster id per input value, in [0, means.size());
                                ///< empty when built by KMeans1DCuts
  /// Cut points in sorted-rank space: cluster c holds the values of sorted
  /// ranks [cuts[c], cuts[c+1]). Size means.size() + 1, cuts.front() == 0,
  /// cuts.back() == n, strictly increasing (no cluster is empty).
  std::vector<int> cuts;
  std::vector<double> means;    ///< cluster means, ascending; size min(k, #distinct)
  double wcss = 0.0;            ///< within-cluster sum of squared error
  int iterations = 0;
};

/// Reusable sorted view of a 1-D dataset: the sort permutation, the sorted
/// values and their prefix / prefix-of-squares sums — everything Lloyd's
/// 1-D iteration needs. Building it is the O(n log n) part of KMeans1D, so
/// sweeps that cluster the *same* data at many k (the Algorithm-1 kappa
/// sweep) construct one workspace and pass it to every call instead of
/// re-sorting per k. Immutable after construction and therefore safe to
/// share across concurrent KMeans1D calls.
///
/// The sort is stable: equal values (-0.0 and +0.0 included) keep ascending
/// input order in `order()`. It is an O(n) LSD radix sort on order-preserving
/// 64-bit keys. Values must not be NaN.
class Sorted1DWorkspace {
 public:
  explicit Sorted1DWorkspace(const std::vector<double>& values);

  int size() const { return static_cast<int>(sorted_.size()); }
  /// Number of distinct values (caps the effective k, see KMeans1DResult).
  int num_distinct() const { return num_distinct_; }
  /// `order()[i]` is the original index of the i-th smallest value.
  const std::vector<int>& order() const { return order_; }
  const std::vector<double>& sorted() const { return sorted_; }
  /// prefix()[i] = sum of the first i sorted values (size n+1).
  const std::vector<double>& prefix() const { return prefix_; }
  const std::vector<double>& prefix_sq() const { return prefix_sq_; }

 private:
  std::vector<int> order_;
  std::vector<double> sorted_;
  std::vector<double> prefix_;
  std::vector<double> prefix_sq_;
  int num_distinct_ = 0;
};

/// Lloyd's k-means on scalar feature values with the paper's deterministic
/// initialization (Section 4.1): sort the values and seed the j-th mean with
/// the value at position (n/k)*j. Because the data is one-dimensional and the
/// seeds are ordered, runs are fully deterministic — the randomized-init
/// local-maxima problem the paper calls out does not arise.
///
/// Empty clusters (possible with heavily duplicated values) are re-seeded by
/// splitting the largest cluster that still spans at least two distinct
/// values; together with the distinct-value cap (see KMeans1DResult) the
/// returned clustering never contains an empty cluster.
Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int k,
                                int max_iterations = 200);

/// Workspace form: identical output to `KMeans1D(values, k)` for the values
/// the workspace was built from, but skips the per-call sort/prefix work.
/// The hot path for sweeps over many k on fixed data; safe to call
/// concurrently on one shared workspace (the workspace is read-only).
Result<KMeans1DResult> KMeans1D(const Sorted1DWorkspace& workspace, int k,
                                int max_iterations = 200);

/// KMeans1D without the per-value `assignment` (left empty): the clustering
/// is fully described by `cuts` over the workspace's sort order. Sweeps that
/// only score a clustering (e.g. by counting components over the cut points)
/// skip the O(n) scatter; AssignFromCuts recovers the assignment when needed.
Result<KMeans1DResult> KMeans1DCuts(const Sorted1DWorkspace& workspace, int k,
                                    int max_iterations = 200);

/// The per-value cluster ids that `cuts` (see KMeans1DResult::cuts) induce on
/// the values `workspace` was built from — exactly KMeans1D's `assignment`.
std::vector<int> AssignFromCuts(const Sorted1DWorkspace& workspace,
                                const std::vector<int>& cuts);

}  // namespace roadpart

#endif  // ROADPART_CLUSTER_KMEANS1D_H_
