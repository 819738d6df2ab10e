#include "cluster/kmeans1d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/radix_sort.h"
#include "common/string_util.h"

namespace roadpart {

Sorted1DWorkspace::Sorted1DWorkspace(const std::vector<double>& values) {
  const int n = static_cast<int>(values.size());
  // Order-preserving keys: flipping every bit of a negative and the sign bit
  // of a non-negative makes unsigned key order the numeric order. -0.0 takes
  // the key of +0.0, as the two compare equal.
  auto key_of = [&values](int i) {
    const double v = values[i] == 0.0 ? 0.0 : values[i];
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  };
  StableRadixSortIndices(n, key_of, &order_);
  sorted_.resize(n);
  for (int i = 0; i < n; ++i) sorted_[i] = values[order_[i]];

  // Prefix sums for O(1) range means.
  prefix_.assign(n + 1, 0.0);
  prefix_sq_.assign(n + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
    prefix_sq_[i + 1] = prefix_sq_[i] + sorted_[i] * sorted_[i];
  }

  for (int i = 0; i < n; ++i) {
    if (i == 0 || sorted_[i] != sorted_[i - 1]) ++num_distinct_;
  }
}

namespace {

// std::upper_bound(sorted, x), found by galloping from `hint`, a guess at the
// answer: probes 1, 2, 4, ... ranks away from the hint bracket the answer and
// a binary search inside the bracket finishes. A cut that moved d ranks since
// its last position costs O(log d) comparisons instead of O(log n). Every
// probe uses upper_bound's own test (x < value), so on sorted data the index
// is exactly upper_bound's.
int UpperBoundFrom(const std::vector<double>& sorted, double x, int hint) {
  const int n = static_cast<int>(sorted.size());
  int lo = 0;  // the answer lies in [lo, hi]
  int hi = n;
  if (hint < n && !(x < sorted[hint])) {
    lo = hint + 1;
    for (int64_t step = 1; step <= n - lo; step *= 2) {
      const int probe = lo + static_cast<int>(step) - 1;
      if (x < sorted[probe]) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  } else {
    hi = hint;
    for (int64_t step = 1; step <= hi; step *= 2) {
      const int probe = hi - static_cast<int>(step);
      if (!(x < sorted[probe])) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  }
  return static_cast<int>(
      std::upper_bound(sorted.begin() + lo, sorted.begin() + hi, x) -
      sorted.begin());
}

}  // namespace

Result<KMeans1DResult> KMeans1D(const std::vector<double>& values, int k,
                                int max_iterations) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > static_cast<int>(values.size())) {
    return Status::InvalidArgument(StrPrintf(
        "k=%d exceeds data size %d", k, static_cast<int>(values.size())));
  }
  return KMeans1D(Sorted1DWorkspace(values), k, max_iterations);
}

Result<KMeans1DResult> KMeans1D(const Sorted1DWorkspace& workspace, int k,
                                int max_iterations) {
  RP_ASSIGN_OR_RETURN(KMeans1DResult result,
                      KMeans1DCuts(workspace, k, max_iterations));
  result.assignment = AssignFromCuts(workspace, result.cuts);
  return result;
}

std::vector<int> AssignFromCuts(const Sorted1DWorkspace& workspace,
                                const std::vector<int>& cuts) {
  std::vector<int> assignment(workspace.size(), 0);
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    for (int i = cuts[c]; i < cuts[c + 1]; ++i) {
      assignment[workspace.order()[i]] = static_cast<int>(c);
    }
  }
  return assignment;
}

Result<KMeans1DResult> KMeans1DCuts(const Sorted1DWorkspace& workspace, int k,
                                    int max_iterations) {
  const int n = workspace.size();
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument(
        StrPrintf("k=%d exceeds data size %d", k, n));
  }
  if (RP_FAULT_FIRES(FaultSite::kKMeans1DWorkspaceCorruption)) {
    return Status::Internal("injected: shared 1-D k-means workspace corrupt");
  }

  const std::vector<double>& sorted = workspace.sorted();
  const std::vector<double>& prefix = workspace.prefix();
  const std::vector<double>& prefix_sq = workspace.prefix_sq();

  // Duplicate-heavy inputs: more clusters than distinct values can never all
  // be non-empty, so cap the effective k (see the contract in kmeans1d.h).
  const int eff_k = std::min(k, workspace.num_distinct());

  // Paper initialization: mean_j seeded with the sorted value at (1-based)
  // index (n/k)*j for j = 1..k, i.e. 0-based index (n*j)/k - 1.
  std::vector<double> means(eff_k);
  for (int j = 1; j <= eff_k; ++j) {
    int idx = std::clamp((n * j) / eff_k - 1, 0, n - 1);
    means[j - 1] = sorted[idx];
  }
  std::sort(means.begin(), means.end());

  // In 1-D with sorted means, clusters are contiguous runs split at the
  // midpoints between consecutive means. Each cut gallops from where it
  // last stood: Lloyd moves cuts little between iterations.
  std::vector<int> boundary(eff_k + 1, 0);  // cluster c covers [boundary[c], boundary[c+1])
  boundary[eff_k] = n;
  auto place_cuts = [&] {
    for (int c = 1; c < eff_k; ++c) {
      const double mid = 0.5 * (means[c - 1] + means[c]);
      boundary[c] = std::max(UpperBoundFrom(sorted, mid, boundary[c]),
                             boundary[c - 1]);
    }
  };
  std::vector<int> prev_boundary;

  int iterations = 0;
  for (; iterations < max_iterations; ++iterations) {
    place_cuts();
    if (boundary == prev_boundary) break;
    prev_boundary = boundary;

    for (int c = 0; c < eff_k; ++c) {
      int lo = boundary[c];
      int hi = boundary[c + 1];
      if (hi > lo) {
        means[c] = (prefix[hi] - prefix[lo]) / (hi - lo);
      }
      // Empty cluster: leave the mean; re-seeding happens below if it stays
      // empty at convergence.
    }
    std::sort(means.begin(), means.end());
  }

  // Re-seed clusters that converged empty by splitting the largest cluster
  // that still spans >= 2 distinct values at its extreme value (a cluster of
  // pure duplicates cannot be split: both halves would share one mean and
  // the empty cluster would come straight back). eff_k <= num_distinct
  // guarantees such a cluster exists whenever any cluster is empty.
  for (int guard = 0; guard < eff_k; ++guard) {
    bool any_empty = false;
    for (int c = 0; c < eff_k; ++c) {
      if (boundary[c + 1] == boundary[c]) {
        any_empty = true;
        int big = -1;
        for (int c2 = 0; c2 < eff_k; ++c2) {
          if (boundary[c2 + 1] - boundary[c2] < 2) continue;
          if (sorted[boundary[c2 + 1] - 1] <= sorted[boundary[c2]]) continue;
          if (big < 0 ||
              boundary[c2 + 1] - boundary[c2] >
                  boundary[big + 1] - boundary[big]) {
            big = c2;
          }
        }
        if (big < 0) break;
        means[c] = sorted[boundary[big + 1] - 1];
        double mu_big = (prefix[boundary[big + 1]] - prefix[boundary[big]]) /
                        (boundary[big + 1] - boundary[big]);
        means[big] = mu_big;
        std::sort(means.begin(), means.end());
        place_cuts();
        break;
      }
    }
    if (!any_empty) break;
  }

  // Deterministic last-resort repair: should re-seeding ever converge with a
  // residual empty cluster, distribute the distinct-value runs evenly. Each
  // cluster then owns >= 1 run (eff_k <= num_distinct), so none is empty.
  bool still_empty = false;
  for (int c = 0; c < eff_k; ++c) {
    still_empty = still_empty || boundary[c + 1] == boundary[c];
  }
  if (still_empty) {
    std::vector<int> run_starts;
    run_starts.reserve(workspace.num_distinct());
    for (int i = 0; i < n; ++i) {
      if (i == 0 || sorted[i] != sorted[i - 1]) run_starts.push_back(i);
    }
    for (int c = 0; c < eff_k; ++c) {
      boundary[c] = run_starts[static_cast<size_t>(c) * run_starts.size() /
                               static_cast<size_t>(eff_k)];
    }
    boundary[eff_k] = n;
  }

  KMeans1DResult result;
  result.iterations = iterations;
  result.means.assign(eff_k, 0.0);
  result.wcss = 0.0;
  for (int c = 0; c < eff_k; ++c) {
    int lo = boundary[c];
    int hi = boundary[c + 1];
    if (hi > lo) {
      double mu = (prefix[hi] - prefix[lo]) / (hi - lo);
      result.means[c] = mu;
      result.wcss += (prefix_sq[hi] - prefix_sq[lo]) - (hi - lo) * mu * mu;
    } else {
      result.means[c] = means[c];
    }
  }
  result.cuts = std::move(boundary);
  // Numerical noise can push wcss epsilon-negative.
  result.wcss = std::max(0.0, result.wcss);
  return result;
}

}  // namespace roadpart
