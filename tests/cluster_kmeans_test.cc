#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/kmeans1d.h"
#include "common/rng.h"

namespace roadpart {
namespace {

// --- KMeans1D ---

TEST(KMeans1DTest, SeparatesObviousClusters) {
  std::vector<double> values = {0.0, 0.1, 0.2, 10.0, 10.1, 10.2};
  auto r = KMeans1D(values, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignment[0], r->assignment[1]);
  EXPECT_EQ(r->assignment[1], r->assignment[2]);
  EXPECT_EQ(r->assignment[3], r->assignment[4]);
  EXPECT_NE(r->assignment[0], r->assignment[3]);
  EXPECT_NEAR(r->means[0], 0.1, 1e-9);
  EXPECT_NEAR(r->means[1], 10.1, 1e-9);
  EXPECT_NEAR(r->wcss, 0.04, 1e-9);
}

TEST(KMeans1DTest, Deterministic) {
  Rng rng(4);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextDouble());
  auto a = KMeans1D(values, 7);
  auto b = KMeans1D(values, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->means, b->means);
}

TEST(KMeans1DTest, InvalidArgs) {
  EXPECT_FALSE(KMeans1D({1.0, 2.0}, 0).ok());
  EXPECT_FALSE(KMeans1D({1.0, 2.0}, 3).ok());
}

TEST(KMeans1DTest, KEqualsN) {
  std::vector<double> values = {3.0, 1.0, 2.0};
  auto r = KMeans1D(values, 3);
  ASSERT_TRUE(r.ok());
  // Each point its own cluster; zero WCSS.
  EXPECT_NEAR(r->wcss, 0.0, 1e-12);
  std::set<int> distinct(r->assignment.begin(), r->assignment.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(KMeans1DTest, DuplicateValues) {
  std::vector<double> values(20, 5.0);
  values.push_back(9.0);
  auto r = KMeans1D(values, 2);
  ASSERT_TRUE(r.ok());
  // All 5.0s together, the 9.0 alone.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(r->assignment[i], r->assignment[0]);
  EXPECT_NE(r->assignment[20], r->assignment[0]);
}

TEST(KMeans1DTest, AllEqualValuesCapEffectiveK) {
  // Historical bug: with fewer distinct values than k, the re-seed loop gave
  // up and returned silently empty clusters with stale means. The contract
  // now caps the effective k at the distinct-value count.
  std::vector<double> values(12, 4.0);
  auto r = KMeans1D(values, 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->means.size(), 1u);
  EXPECT_EQ(r->means[0], 4.0);
  for (int a : r->assignment) EXPECT_EQ(a, 0);
  EXPECT_NEAR(r->wcss, 0.0, 1e-12);
}

TEST(KMeans1DTest, TwoDistinctValuesWithKFive) {
  std::vector<double> values = {1.0, 7.0, 1.0, 1.0, 7.0, 1.0, 7.0, 1.0};
  auto r = KMeans1D(values, 5);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->means.size(), 2u);
  EXPECT_EQ(r->means[0], 1.0);
  EXPECT_EQ(r->means[1], 7.0);
  // Every cluster id is used: no silently empty clusters.
  std::vector<int> counts(r->means.size(), 0);
  for (int a : r->assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, static_cast<int>(r->means.size()));
    counts[a]++;
  }
  for (int c : counts) EXPECT_GT(c, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(r->assignment[i], values[i] == 1.0 ? 0 : 1);
  }
  EXPECT_NEAR(r->wcss, 0.0, 1e-12);
}

TEST(KMeans1DTest, NoEmptyClustersUnderHeavyDuplication) {
  // 48 copies of 1.0 plus a handful of spread-out values; every requested
  // cluster must end up non-empty (the re-seed loop only splits clusters
  // that span >= 2 distinct values).
  std::vector<double> values(48, 1.0);
  for (double v : {5.0, 9.0, 9.5, 14.0}) values.push_back(v);
  auto r = KMeans1D(values, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->means.size(), 4u);
  std::vector<int> counts(4, 0);
  for (int a : r->assignment) counts[a]++;
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(KMeans1DTest, WorkspaceOverloadMatchesVectorOverload) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.NextDouble(0, 4));
  // Duplicate-heavy tail.
  for (int i = 0; i < 100; ++i) values.push_back(2.5);
  Sorted1DWorkspace workspace(values);
  EXPECT_EQ(workspace.size(), static_cast<int>(values.size()));
  for (int k : {2, 3, 5, 9}) {
    auto direct = KMeans1D(values, k);
    auto shared = KMeans1D(workspace, k);
    ASSERT_TRUE(direct.ok() && shared.ok());
    EXPECT_EQ(direct->assignment, shared->assignment) << "k=" << k;
    EXPECT_EQ(direct->means, shared->means) << "k=" << k;
    EXPECT_EQ(direct->wcss, shared->wcss) << "k=" << k;
  }
}

TEST(KMeans1DTest, WorkspaceReportsDistinctCount) {
  Sorted1DWorkspace workspace({3.0, 1.0, 3.0, 2.0, 1.0});
  EXPECT_EQ(workspace.size(), 5);
  EXPECT_EQ(workspace.num_distinct(), 3);
  EXPECT_TRUE(std::is_sorted(workspace.sorted().begin(),
                             workspace.sorted().end()));
  // order() maps sorted positions back to input positions.
  for (int i = 0; i < workspace.size(); ++i) {
    EXPECT_EQ(workspace.sorted()[i],
              std::vector<double>({3.0, 1.0, 3.0, 2.0, 1.0})
                  [workspace.order()[i]]);
  }
}

TEST(KMeans1DTest, MeansSortedAscending) {
  Rng rng(8);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.NextGaussian());
  auto r = KMeans1D(values, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::is_sorted(r->means.begin(), r->means.end()));
}

TEST(KMeans1DTest, AssignmentConsistentWithNearestMean) {
  Rng rng(15);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble(0, 10));
  auto r = KMeans1D(values, 4);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    double assigned = std::fabs(values[i] - r->means[r->assignment[i]]);
    for (double m : r->means) {
      EXPECT_LE(assigned, std::fabs(values[i] - m) + 1e-9);
    }
  }
}

class KMeans1DSweep : public ::testing::TestWithParam<int> {};

TEST_P(KMeans1DSweep, WcssDecreasesWithK) {
  Rng rng(100 + GetParam());
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.NextGaussian(0, 3));
  double prev = HUGE_VAL;
  for (int k = 1; k <= GetParam(); ++k) {
    auto r = KMeans1D(values, k);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->wcss, prev + 1e-6) << "k=" << k;
    prev = r->wcss;
  }
}

INSTANTIATE_TEST_SUITE_P(MaxK, KMeans1DSweep, ::testing::Values(4, 8, 16));

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// --- Sorted1DWorkspace against a std::stable_sort oracle ---

void ExpectWorkspaceMatchesStableSort(const std::vector<double>& values,
                                      const std::string& what) {
  SCOPED_TRACE(what);
  const int n = static_cast<int>(values.size());
  std::vector<int> oracle(n);
  std::iota(oracle.begin(), oracle.end(), 0);
  std::stable_sort(oracle.begin(), oracle.end(),
                   [&](int a, int b) { return values[a] < values[b]; });
  const Sorted1DWorkspace workspace(values);
  ASSERT_EQ(workspace.size(), n);
  EXPECT_EQ(workspace.order(), oracle);
  double sum = 0.0;
  double sum_sq = 0.0;
  int distinct = 0;
  for (int i = 0; i < n; ++i) {
    const double v = values[oracle[i]];
    EXPECT_EQ(Bits(workspace.sorted()[i]), Bits(v)) << "rank " << i;
    sum += v;
    sum_sq += v * v;
    EXPECT_EQ(Bits(workspace.prefix()[i + 1]), Bits(sum)) << "rank " << i;
    EXPECT_EQ(Bits(workspace.prefix_sq()[i + 1]), Bits(sum_sq)) << "rank " << i;
    if (i == 0 || v != values[oracle[i - 1]]) ++distinct;
    // The stated contract: equal values keep ascending input order.
    if (i > 0 && v == values[oracle[i - 1]]) {
      EXPECT_LT(workspace.order()[i - 1], workspace.order()[i]);
    }
  }
  EXPECT_EQ(workspace.num_distinct(), distinct);
}

TEST(Sorted1DWorkspaceTest, MatchesStableSortOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectWorkspaceMatchesStableSort({}, "empty");
  ExpectWorkspaceMatchesStableSort({-2.5}, "one value");
  ExpectWorkspaceMatchesStableSort({3.0, -3.0}, "two values");
  ExpectWorkspaceMatchesStableSort({-0.0, 0.0}, "-0.0 then +0.0");
  ExpectWorkspaceMatchesStableSort({0.0, -0.0}, "+0.0 then -0.0");
  ExpectWorkspaceMatchesStableSort(
      {0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 1.0, -1.0, -0.0}, "signed zeros");
  ExpectWorkspaceMatchesStableSort(
      {inf, -inf, 5e-324, -5e-324, 1e308, -1e308, 2.2e-308, 0.0},
      "extremes and subnormals");
  Rng rng(91);
  for (int levels : {0, 3, 17}) {
    std::vector<double> values(3000);
    for (double& v : values) {
      v = levels > 0 ? static_cast<double>(rng.NextInt(0, levels - 1)) - 1.0
                     : rng.NextGaussian() * 1e3;
    }
    ExpectWorkspaceMatchesStableSort(values,
                                     "levels " + std::to_string(levels));
  }
}

// --- KMeans1DCuts against a full-upper_bound reference ---

// KMeans1DCuts with every cut found by std::upper_bound over the whole
// sorted array: the search the galloping one must reproduce.
KMeans1DResult ReferenceKMeans1DCuts(const Sorted1DWorkspace& workspace,
                                     int k, int max_iterations) {
  const int n = workspace.size();
  const std::vector<double>& sorted = workspace.sorted();
  const std::vector<double>& prefix = workspace.prefix();
  const std::vector<double>& prefix_sq = workspace.prefix_sq();
  const int eff_k = std::min(k, workspace.num_distinct());
  std::vector<double> means(eff_k);
  for (int j = 1; j <= eff_k; ++j) {
    means[j - 1] = sorted[std::clamp((n * j) / eff_k - 1, 0, n - 1)];
  }
  std::sort(means.begin(), means.end());
  std::vector<int> boundary(eff_k + 1, 0);
  boundary[eff_k] = n;
  auto place_cuts = [&] {
    for (int c = 1; c < eff_k; ++c) {
      const double mid = 0.5 * (means[c - 1] + means[c]);
      boundary[c] = static_cast<int>(
          std::upper_bound(sorted.begin(), sorted.end(), mid) -
          sorted.begin());
      boundary[c] = std::max(boundary[c], boundary[c - 1]);
    }
  };
  std::vector<int> prev_boundary;
  int iterations = 0;
  for (; iterations < max_iterations; ++iterations) {
    place_cuts();
    if (boundary == prev_boundary) break;
    prev_boundary = boundary;
    for (int c = 0; c < eff_k; ++c) {
      if (boundary[c + 1] > boundary[c]) {
        means[c] = (prefix[boundary[c + 1]] - prefix[boundary[c]]) /
                   (boundary[c + 1] - boundary[c]);
      }
    }
    std::sort(means.begin(), means.end());
  }
  for (int guard = 0; guard < eff_k; ++guard) {
    bool any_empty = false;
    for (int c = 0; c < eff_k && !any_empty; ++c) {
      if (boundary[c + 1] != boundary[c]) continue;
      any_empty = true;
      int big = -1;
      for (int c2 = 0; c2 < eff_k; ++c2) {
        const int size = boundary[c2 + 1] - boundary[c2];
        if (size < 2 || sorted[boundary[c2 + 1] - 1] <= sorted[boundary[c2]]) {
          continue;
        }
        if (big < 0 || size > boundary[big + 1] - boundary[big]) big = c2;
      }
      if (big < 0) break;
      means[c] = sorted[boundary[big + 1] - 1];
      means[big] = (prefix[boundary[big + 1]] - prefix[boundary[big]]) /
                   (boundary[big + 1] - boundary[big]);
      std::sort(means.begin(), means.end());
      place_cuts();
    }
    if (!any_empty) break;
  }
  bool still_empty = false;
  for (int c = 0; c < eff_k; ++c) {
    still_empty = still_empty || boundary[c + 1] == boundary[c];
  }
  if (still_empty) {
    std::vector<int> run_starts;
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
  for (int c = 0; c < eff_k; ++c) {
    const int lo = boundary[c];
    const int hi = boundary[c + 1];
    if (hi > lo) {
      const double mu = (prefix[hi] - prefix[lo]) / (hi - lo);
      result.means[c] = mu;
      result.wcss += (prefix_sq[hi] - prefix_sq[lo]) - (hi - lo) * mu * mu;
    } else {
      result.means[c] = means[c];
    }
  }
  result.cuts = std::move(boundary);
  result.wcss = std::max(0.0, result.wcss);
  return result;
}

TEST(KMeans1DTest, GallopingCutsMatchFullUpperBoundReference) {
  Rng rng(7);
  std::vector<std::vector<double>> datasets;
  for (int levels : {0, 4, 40}) {
    std::vector<double> values(4000);
    for (double& v : values) {
      // Skewed like congestion densities: most mass low, a long tail.
      v = levels > 0 ? static_cast<double>(rng.NextInt(0, levels - 1))
                     : std::exp(2.0 * rng.NextGaussian());
    }
    datasets.push_back(std::move(values));
  }
  datasets.push_back({1.0, 1.0, 2.0});
  // Small integer data: a midpoint between two means often equals a value,
  // and sometimes the value a cut gallops from.
  for (int t = 0; t < 400; ++t) {
    std::vector<double> values(static_cast<size_t>(rng.NextInt(1, 40)));
    const int levels = static_cast<int>(rng.NextInt(2, 6));
    for (double& v : values) v = static_cast<double>(rng.NextInt(0, levels));
    datasets.push_back(std::move(values));
  }
  int capped = 0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    const Sorted1DWorkspace workspace(datasets[d]);
    for (int max_iterations : {1, 2, 5, 200}) {
      for (int k = 1; k <= std::min(workspace.size(), 30); ++k) {
        SCOPED_TRACE("dataset " + std::to_string(d) + " k " +
                     std::to_string(k) + " max " +
                     std::to_string(max_iterations));
        auto galloping = KMeans1DCuts(workspace, k, max_iterations);
        ASSERT_TRUE(galloping.ok());
        const KMeans1DResult reference =
            ReferenceKMeans1DCuts(workspace, k, max_iterations);
        EXPECT_EQ(galloping->cuts, reference.cuts);
        EXPECT_EQ(galloping->iterations, reference.iterations);
        ASSERT_EQ(galloping->means.size(), reference.means.size());
        for (size_t c = 0; c < reference.means.size(); ++c) {
          EXPECT_EQ(Bits(galloping->means[c]), Bits(reference.means[c]));
        }
        EXPECT_EQ(Bits(galloping->wcss), Bits(reference.wcss));
        capped += reference.iterations == max_iterations;
      }
    }
  }
  EXPECT_GT(capped, 0);
}

// --- KMeansRows ---

DenseMatrix ThreeBlobs(int per_blob, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix pts(3 * per_blob, 2);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      pts(b * per_blob + i, 0) = centers[b][0] + rng.NextGaussian() * 0.3;
      pts(b * per_blob + i, 1) = centers[b][1] + rng.NextGaussian() * 0.3;
    }
  }
  return pts;
}

TEST(KMeansRowsTest, RecoversBlobs) {
  DenseMatrix pts = ThreeBlobs(30, 21);
  KMeansOptions opt;
  opt.seed = 5;
  auto r = KMeansRows(pts, 3, opt);
  ASSERT_TRUE(r.ok());
  // Each blob must be pure.
  for (int b = 0; b < 3; ++b) {
    int label = r->assignment[b * 30];
    for (int i = 0; i < 30; ++i) EXPECT_EQ(r->assignment[b * 30 + i], label);
  }
  // And the three labels distinct.
  std::set<int> labels = {r->assignment[0], r->assignment[30],
                          r->assignment[60]};
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeansRowsTest, SeedReproducible) {
  DenseMatrix pts = ThreeBlobs(20, 22);
  KMeansOptions opt;
  opt.seed = 77;
  auto a = KMeansRows(pts, 3, opt);
  auto b = KMeansRows(pts, 3, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST(KMeansRowsTest, InvalidArgs) {
  DenseMatrix pts(3, 2);
  EXPECT_FALSE(KMeansRows(pts, 0).ok());
  EXPECT_FALSE(KMeansRows(pts, 4).ok());
  KMeansOptions opt;
  opt.restarts = 0;
  EXPECT_FALSE(KMeansRows(pts, 2, opt).ok());
}

TEST(KMeansRowsTest, NoEmptyClusters) {
  // Heavy duplication tempts empty clusters; the re-seeding must prevent
  // them.
  DenseMatrix pts(50, 1);
  for (int i = 0; i < 48; ++i) pts(i, 0) = 1.0;
  pts(48, 0) = 5.0;
  pts(49, 0) = 9.0;
  KMeansOptions opt;
  opt.seed = 2;
  auto r = KMeansRows(pts, 3, opt);
  ASSERT_TRUE(r.ok());
  std::vector<int> counts(3, 0);
  for (int a : r->assignment) counts[a]++;
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(KMeansRowsTest, RandomInitAlsoWorks) {
  DenseMatrix pts = ThreeBlobs(15, 31);
  KMeansOptions opt;
  opt.use_kmeanspp = false;
  opt.restarts = 10;
  opt.seed = 3;
  auto r = KMeansRows(pts, 3, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->wcss, 50.0);
}

TEST(KMeansRowsTest, MoreRestartsNeverWorse) {
  DenseMatrix pts = ThreeBlobs(20, 41);
  KMeansOptions one;
  one.restarts = 1;
  one.seed = 7;
  KMeansOptions many;
  many.restarts = 8;
  many.seed = 7;
  auto a = KMeansRows(pts, 4, one);
  auto b = KMeansRows(pts, 4, many);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b->wcss, a->wcss + 1e-9);
}

TEST(KMeansRowsTest, SingleCluster) {
  DenseMatrix pts = ThreeBlobs(10, 51);
  auto r = KMeansRows(pts, 1);
  ASSERT_TRUE(r.ok());
  for (int a : r->assignment) EXPECT_EQ(a, 0);
}

// --- KMeansRows against a scalar assignment oracle ---

double ScalarDistanceSq(const double* p, const double* c, int dim) {
  double acc = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double diff = p[d] - c[d];
    acc += diff * diff;
  }
  return acc;
}

// KMeansRows with the assignment step as a plain scalar scan over the
// centres in order: the computation the two-lane step must reproduce.
KMeansResult ReferenceKMeansRows(const DenseMatrix& points, int k,
                                 const KMeansOptions& options) {
  const int n = points.rows();
  const int dim = points.cols();
  Rng seeder(options.seed);
  std::vector<uint64_t> seeds(options.restarts);
  for (uint64_t& s : seeds) s = seeder.Next();
  KMeansResult best;
  for (int r = 0; r < options.restarts; ++r) {
    Rng rng(seeds[r]);
    DenseMatrix centroids(k, dim);
    if (options.use_kmeanspp) {
      const int first = static_cast<int>(rng.NextBounded(n));
      for (int d = 0; d < dim; ++d) centroids(0, d) = points(first, d);
      std::vector<double> dist_sq(n);
      for (int i = 0; i < n; ++i) {
        dist_sq[i] = ScalarDistanceSq(points.Row(i), centroids.Row(0), dim);
      }
      for (int c = 1; c < k; ++c) {
        double total = 0.0;
        for (double v : dist_sq) total += v;
        const int chosen = total <= 0.0
                               ? static_cast<int>(rng.NextBounded(n))
                               : static_cast<int>(rng.NextWeighted(dist_sq));
        for (int d = 0; d < dim; ++d) centroids(c, d) = points(chosen, d);
        for (int i = 0; i < n; ++i) {
          dist_sq[i] = std::min(
              dist_sq[i], ScalarDistanceSq(points.Row(i), centroids.Row(c), dim));
        }
      }
    } else {
      std::vector<int> ids(n);
      std::iota(ids.begin(), ids.end(), 0);
      rng.Shuffle(ids);
      for (int c = 0; c < k; ++c) {
        for (int d = 0; d < dim; ++d) centroids(c, d) = points(ids[c], d);
      }
    }
    std::vector<int> assignment(n, -1);
    int iterations = 0;
    for (; iterations < options.max_iterations; ++iterations) {
      bool changed = false;
      for (int i = 0; i < n; ++i) {
        int nearest = 0;
        double nearest_d = std::numeric_limits<double>::infinity();
        for (int c = 0; c < k; ++c) {
          const double d = ScalarDistanceSq(points.Row(i), centroids.Row(c), dim);
          if (d < nearest_d) {
            nearest_d = d;
            nearest = c;
          }
        }
        changed = changed || assignment[i] != nearest;
        assignment[i] = nearest;
      }
      if (!changed && iterations > 0) break;
      DenseMatrix sums(k, dim);
      std::vector<int> counts(k, 0);
      for (int i = 0; i < n; ++i) {
        ++counts[assignment[i]];
        for (int d = 0; d < dim; ++d) sums(assignment[i], d) += points(i, d);
      }
      for (int c = 0; c < k; ++c) {
        if (counts[c] > 0) {
          for (int d = 0; d < dim; ++d) centroids(c, d) = sums(c, d) / counts[c];
          continue;
        }
        int worst = 0;
        double worst_d = -1.0;
        for (int i = 0; i < n; ++i) {
          const double d = ScalarDistanceSq(
              points.Row(i), centroids.Row(assignment[i]), dim);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        for (int d = 0; d < dim; ++d) centroids(c, d) = points(worst, d);
      }
    }
    double wcss = 0.0;
    for (int i = 0; i < n; ++i) {
      wcss += ScalarDistanceSq(points.Row(i), centroids.Row(assignment[i]), dim);
    }
    if (r == 0 || wcss < best.wcss) {
      best.assignment = assignment;
      best.centroids = centroids;
      best.wcss = wcss;
      best.iterations = iterations;
    }
  }
  return best;
}

TEST(KMeansRowsTest, MatchesScalarAssignmentOracle) {
  Rng rng(61);
  for (int dim = 1; dim <= 8; ++dim) {
    // Gaussian blobs plus a run of duplicated rows, so equal distances and
    // ties between centres occur.
    DenseMatrix points(240, dim);
    for (int i = 0; i < points.rows(); ++i) {
      const double offset = static_cast<double>(i % 5) * 3.0;
      for (int d = 0; d < dim; ++d) {
        points(i, d) = i >= 200 ? 1.0 : offset + rng.NextGaussian();
      }
    }
    for (int k : {1, 2, 3, 6, 7}) {
      for (bool kmeanspp : {true, false}) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " k " +
                     std::to_string(k) + (kmeanspp ? " k-means++" : " random"));
        KMeansOptions options;
        options.seed = 100 + static_cast<uint64_t>(dim * 10 + k);
        options.restarts = 3;
        options.use_kmeanspp = kmeanspp;
        auto fast = KMeansRows(points, k, options);
        ASSERT_TRUE(fast.ok());
        const KMeansResult reference = ReferenceKMeansRows(points, k, options);
        EXPECT_EQ(fast->assignment, reference.assignment);
        EXPECT_EQ(fast->iterations, reference.iterations);
        EXPECT_EQ(Bits(fast->wcss), Bits(reference.wcss));
        for (int c = 0; c < k; ++c) {
          for (int d = 0; d < dim; ++d) {
            EXPECT_EQ(Bits(fast->centroids(c, d)),
                      Bits(reference.centroids(c, d)));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace roadpart
