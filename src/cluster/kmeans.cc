#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

double RowDistanceSq(const DenseMatrix& points, int row, const double* center,
                     int dim) {
  const double* p = points.Row(row);
  double acc = 0.0;
  for (int d = 0; d < dim; ++d) {
    double diff = p[d] - center[d];
    acc += diff * diff;
  }
  return acc;
}

// Two doubles, one per lane. Lane arithmetic is scalar IEEE double
// arithmetic (no FMA: a product is rounded before it is added), so each lane
// computes exactly what the same chain of scalar operations computes.
typedef double V2 __attribute__((vector_size(16)));

// Centres 2q and 2q+1 interleaved lane by lane: pairs[q * dim + d] holds
// {c_2q[d], c_2q+1[d]}. An odd last centre is left out.
void PackCentrePairs(const DenseMatrix& centroids, std::vector<V2>* pairs) {
  const int dim = centroids.cols();
  pairs->resize(static_cast<size_t>(centroids.rows() / 2) * dim);
  for (int q = 0; q < centroids.rows() / 2; ++q) {
    for (int d = 0; d < dim; ++d) {
      (*pairs)[q * dim + d] =
          V2{centroids(2 * q, d), centroids(2 * q + 1, d)};
    }
  }
}

// The centre nearest to row `row`, first index on ties: the scalar scan of
// RowDistanceSq in centre order with a strict <, two centres per vector.
// Each lane sums its centre's squared differences in dimension order from
// 0.0, as RowDistanceSq does, so the distances and the choice are the
// scalar ones bit for bit.
int NearestCentre(const DenseMatrix& points, int row,
                  const DenseMatrix& centroids, const std::vector<V2>& pairs) {
  const int k = centroids.rows();
  const int dim = points.cols();
  const double* p = points.Row(row);
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (int q = 0; q < k / 2; ++q) {
    const V2* c = pairs.data() + static_cast<size_t>(q) * dim;
    V2 acc = {0.0, 0.0};
    for (int d = 0; d < dim; ++d) {
      const V2 diff = V2{p[d], p[d]} - c[d];
      acc += diff * diff;
    }
    if (acc[0] < best_d) {
      best_d = acc[0];
      best = 2 * q;
    }
    if (acc[1] < best_d) {
      best_d = acc[1];
      best = 2 * q + 1;
    }
  }
  if (k % 2 == 1 &&
      RowDistanceSq(points, row, centroids.Row(k - 1), dim) < best_d) {
    best = k - 1;
  }
  return best;
}

// One full Lloyd run from a given seeding.
KMeansResult RunOnce(const DenseMatrix& points, int k,
                     const KMeansOptions& options, Rng& rng) {
  const int n = points.rows();
  const int dim = points.cols();

  DenseMatrix centroids(k, dim);
  if (options.use_kmeanspp) {
    // k-means++: first centre uniform, then proportional to D^2.
    int first = static_cast<int>(rng.NextBounded(n));
    for (int d = 0; d < dim; ++d) centroids(0, d) = points(first, d);
    std::vector<double> dist_sq(n);
    for (int i = 0; i < n; ++i) {
      dist_sq[i] = RowDistanceSq(points, i, centroids.Row(0), dim);
    }
    for (int c = 1; c < k; ++c) {
      double total = 0.0;
      for (double v : dist_sq) total += v;
      int chosen;
      if (total <= 0.0) {
        chosen = static_cast<int>(rng.NextBounded(n));
      } else {
        chosen = static_cast<int>(rng.NextWeighted(dist_sq));
      }
      for (int d = 0; d < dim; ++d) centroids(c, d) = points(chosen, d);
      for (int i = 0; i < n; ++i) {
        dist_sq[i] = std::min(dist_sq[i],
                              RowDistanceSq(points, i, centroids.Row(c), dim));
      }
    }
  } else {
    std::vector<int> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = i;
    rng.Shuffle(ids);
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < dim; ++d) centroids(c, d) = points(ids[c], d);
    }
  }

  std::vector<int> assignment(n, -1);
  std::vector<int> counts(k, 0);
  std::vector<V2> pairs;
  int iterations = 0;
  for (; iterations < options.max_iterations; ++iterations) {
    bool changed = false;
    PackCentrePairs(centroids, &pairs);
    for (int i = 0; i < n; ++i) {
      const int best = NearestCentre(points, i, centroids, pairs);
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iterations > 0) break;

    // Recompute centroids.
    DenseMatrix sums(k, dim);
    std::fill(counts.begin(), counts.end(), 0);
    for (int i = 0; i < n; ++i) {
      int c = assignment[i];
      counts[c]++;
      const double* p = points.Row(i);
      double* s = sums.Row(c);
      for (int d = 0; d < dim; ++d) s[d] += p[d];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        for (int d = 0; d < dim; ++d) centroids(c, d) = sums(c, d) / counts[c];
      } else {
        // Re-seed with the globally worst-fitting point.
        int worst = 0;
        double worst_d = -1.0;
        for (int i = 0; i < n; ++i) {
          double d =
              RowDistanceSq(points, i, centroids.Row(assignment[i]), dim);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        for (int d = 0; d < dim; ++d) centroids(c, d) = points(worst, d);
      }
    }
  }

  KMeansResult result;
  result.assignment = std::move(assignment);
  result.centroids = std::move(centroids);
  result.iterations = iterations;
  result.wcss = 0.0;
  for (int i = 0; i < n; ++i) {
    result.wcss +=
        RowDistanceSq(points, i, result.centroids.Row(result.assignment[i]),
                      dim);
  }
  return result;
}

}  // namespace

Result<KMeansResult> KMeansRows(const DenseMatrix& points, int k,
                                const KMeansOptions& options) {
  const int n = points.rows();
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument(
        StrPrintf("k=%d exceeds row count %d", k, n));
  }
  if (options.restarts <= 0) {
    return Status::InvalidArgument("restarts must be positive");
  }

  // Fault hook (test-only; queried here in the serial prefix, before the
  // parallel restarts, so the injection stays deterministic across thread
  // counts): a degenerate embedding collapses every point to the origin.
  DenseMatrix degenerate;
  const DenseMatrix* active_points = &points;
  if (RP_FAULT_FIRES(FaultSite::kKMeansDegenerateEmbedding)) {
    degenerate = DenseMatrix(points.rows(), points.cols());
    active_points = &degenerate;
  }
  const DenseMatrix& rows = *active_points;

  // Pre-fork one deterministic seed per restart so the restarts can run in
  // parallel while keeping results identical to the sequential order.
  Rng rng(options.seed);
  std::vector<uint64_t> seeds(options.restarts);
  for (uint64_t& s : seeds) s = rng.Next();

  std::vector<KMeansResult> runs(options.restarts);
  ParallelFor(options.restarts, [&](int r) {
    Rng local(seeds[r]);
    runs[r] = RunOnce(rows, k, options, local);
  });

  int best = 0;
  for (int r = 1; r < options.restarts; ++r) {
    if (runs[r].wcss < runs[best].wcss) best = r;
  }
  return std::move(runs[best]);
}

}  // namespace roadpart
