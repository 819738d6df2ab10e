#include "kmeans1d_dp.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/string_util.h"

namespace roadpart {

namespace {

// SSE of sorted[lo..hi] (inclusive) via prefix sums.
class RangeCost {
 public:
  explicit RangeCost(const std::vector<double>& sorted)
      : prefix_(sorted.size() + 1, 0.0), prefix_sq_(sorted.size() + 1, 0.0) {
    for (size_t i = 0; i < sorted.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + sorted[i];
      prefix_sq_[i + 1] = prefix_sq_[i] + sorted[i] * sorted[i];
    }
  }

  double operator()(int lo, int hi) const {
    if (hi < lo) return 0.0;
    int count = hi - lo + 1;
    double sum = prefix_[hi + 1] - prefix_[lo];
    double sum_sq = prefix_sq_[hi + 1] - prefix_sq_[lo];
    return std::max(0.0, sum_sq - sum * sum / count);
  }

  double Mean(int lo, int hi) const {
    return (prefix_[hi + 1] - prefix_[lo]) / (hi - lo + 1);
  }

 private:
  std::vector<double> prefix_;
  std::vector<double> prefix_sq_;
};

// One DP layer with divide and conquer: curr[i] = min over m <= i of
// prev[m] + cost(m, i), where the argmin is monotone in i.
void ComputeLayer(const RangeCost& cost, const std::vector<double>& prev,
                  std::vector<double>& curr, std::vector<int>& split, int lo,
                  int hi, int opt_lo, int opt_hi) {
  if (lo > hi) return;
  int mid = (lo + hi) / 2;
  double best = std::numeric_limits<double>::infinity();
  int best_m = opt_lo;
  int m_hi = std::min(mid, opt_hi);
  for (int m = opt_lo; m <= m_hi; ++m) {
    // prev[m] = optimal cost of items [0, m) in (layer-1) clusters; the new
    // cluster is items [m, mid].
    double candidate = prev[m] + cost(m, mid);
    if (candidate < best) {
      best = candidate;
      best_m = m;
    }
  }
  curr[mid + 1] = best;
  split[mid + 1] = best_m;
  ComputeLayer(cost, prev, curr, split, lo, mid - 1, opt_lo, best_m);
  ComputeLayer(cost, prev, curr, split, mid + 1, hi, best_m, opt_hi);
}

}  // namespace

Result<KMeans1DResult> KMeans1DOptimal(const std::vector<double>& values,
                                       int k) {
  const int n = static_cast<int>(values.size());
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument(
        StrPrintf("k=%d exceeds data size %d", k, n));
  }

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return values[a] < values[b]; });
  std::vector<double> sorted(n);
  for (int i = 0; i < n; ++i) sorted[i] = values[order[i]];

  RangeCost cost(sorted);

  // dp[i] = optimal WCSS of the first i sorted items with `layer` clusters.
  std::vector<double> prev(n + 1, 0.0);
  for (int i = 1; i <= n; ++i) prev[i] = cost(0, i - 1);
  // splits[layer][i]: start index of the last cluster in the optimum.
  std::vector<std::vector<int>> splits(k + 1, std::vector<int>(n + 1, 0));

  for (int layer = 2; layer <= k; ++layer) {
    std::vector<double> curr(n + 1, 0.0);
    // With `layer` clusters, at least `layer` items are needed; for fewer,
    // cost is 0 (each item alone) — handled by clamping below.
    ComputeLayer(cost, prev, curr, splits[layer], 0, n - 1, layer - 1, n - 1);
    // Positions i < layer trivially cost 0 with i singleton clusters.
    for (int i = 0; i < layer && i <= n; ++i) {
      curr[i] = 0.0;
      splits[layer][i] = std::max(0, i - 1);
    }
    prev = std::move(curr);
  }

  // Backtrack cluster boundaries.
  std::vector<int> boundary(k + 1, 0);
  boundary[k] = n;
  int at = n;
  for (int layer = k; layer >= 2; --layer) {
    at = splits[layer][at];
    boundary[layer - 1] = at;
  }
  boundary[0] = 0;

  KMeans1DResult result;
  result.assignment.assign(n, 0);
  result.means.assign(k, 0.0);
  result.wcss = 0.0;
  result.iterations = 0;
  for (int c = 0; c < k; ++c) {
    int lo = boundary[c];
    int hi = boundary[c + 1];
    if (hi > lo) {
      result.means[c] = cost.Mean(lo, hi - 1);
      result.wcss += cost(lo, hi - 1);
    } else if (lo < n) {
      result.means[c] = sorted[std::min(lo, n - 1)];
    }
    for (int i = lo; i < hi; ++i) result.assignment[order[i]] = c;
  }
  return result;
}

}  // namespace roadpart
