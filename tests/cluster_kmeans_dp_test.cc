#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/kmeans1d.h"
#include "kmeans1d_dp.h"
#include "common/rng.h"

namespace roadpart {
namespace {

// Brute-force optimal WCSS over all contiguous splits of the sorted data
// (an optimal 1-D clustering is always contiguous).
double BruteOptimalWcss(std::vector<double> values, int k) {
  std::sort(values.begin(), values.end());
  const int n = static_cast<int>(values.size());
  auto sse = [&](int lo, int hi) {  // inclusive
    double mean = 0.0;
    for (int i = lo; i <= hi; ++i) mean += values[i];
    mean /= (hi - lo + 1);
    double acc = 0.0;
    for (int i = lo; i <= hi; ++i) {
      acc += (values[i] - mean) * (values[i] - mean);
    }
    return acc;
  };
  // dp over O(n^2 k) — fine for tiny n.
  std::vector<std::vector<double>> dp(
      k + 1, std::vector<double>(n + 1, 1e300));
  dp[0][0] = 0.0;
  for (int c = 1; c <= k; ++c) {
    for (int i = 1; i <= n; ++i) {
      for (int m = c - 1; m < i; ++m) {
        dp[c][i] = std::min(dp[c][i], dp[c - 1][m] + sse(m, i - 1));
      }
    }
  }
  return dp[k][n];
}

TEST(KMeans1DOptimalTest, SimpleClusters) {
  std::vector<double> values = {0.0, 0.1, 5.0, 5.1, 9.9, 10.0};
  auto r = KMeans1DOptimal(values, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->wcss, 3 * 0.005, 1e-9);
  EXPECT_EQ(r->assignment[0], r->assignment[1]);
  EXPECT_EQ(r->assignment[2], r->assignment[3]);
  EXPECT_EQ(r->assignment[4], r->assignment[5]);
}

TEST(KMeans1DOptimalTest, MatchesBruteForce) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 4 + static_cast<int>(rng.NextBounded(12));
    int k = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    std::vector<double> values;
    for (int i = 0; i < n; ++i) values.push_back(rng.NextDouble(-3, 3));
    auto r = KMeans1DOptimal(values, k);
    ASSERT_TRUE(r.ok());
    double brute = BruteOptimalWcss(values, k);
    EXPECT_NEAR(r->wcss, brute, 1e-9)
        << "n=" << n << " k=" << k << " trial=" << trial;
  }
}

TEST(KMeans1DOptimalTest, NeverWorseThanLloyd) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> values;
    for (int i = 0; i < 200; ++i) values.push_back(rng.NextGaussian(0, 2));
    for (int k : {2, 3, 5, 8}) {
      auto lloyd = KMeans1D(values, k);
      auto optimal = KMeans1DOptimal(values, k);
      ASSERT_TRUE(lloyd.ok() && optimal.ok());
      EXPECT_LE(optimal->wcss, lloyd->wcss + 1e-9) << "k=" << k;
    }
  }
}

TEST(KMeans1DOptimalTest, LloydWithPaperInitIsNearOptimal) {
  // On plateau-like road densities (the intended workload) the paper's
  // deterministic initialization should land at (or very near) the global
  // optimum — this is the justification for using Lloyd in the hot path.
  Rng rng(13);
  std::vector<double> values;
  for (double center : {0.05, 0.25, 0.60}) {
    for (int i = 0; i < 60; ++i) {
      values.push_back(center + rng.NextGaussian() * 0.01);
    }
  }
  auto lloyd = KMeans1D(values, 3).value();
  auto optimal = KMeans1DOptimal(values, 3).value();
  EXPECT_NEAR(lloyd.wcss, optimal.wcss, 1e-9);
}

TEST(KMeans1DOptimalTest, PropertyCrossCheckLloydVsDp) {
  // Property test over seeded random inputs, including duplicate-heavy
  // ones: for every (values, k)
  //   - DP WCSS <= Lloyd WCSS (DP is the exact optimum),
  //   - Lloyd clusters are contiguous in sorted order,
  //   - Lloyd means are strictly related to cluster ids (sorted ascending),
  //   - every Lloyd cluster id in [0, means.size()) is non-empty.
  Rng rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 10 + static_cast<int>(rng.NextBounded(120));
    const bool duplicate_heavy = trial % 3 == 0;
    std::vector<double> values;
    for (int i = 0; i < n; ++i) {
      double v = rng.NextDouble(0, 8);
      if (duplicate_heavy) v = std::floor(v);  // collapse onto 8 values
      values.push_back(v);
    }
    for (int k : {2, 3, 5, 7}) {
      if (k > n) continue;
      auto lloyd = KMeans1D(values, k);
      ASSERT_TRUE(lloyd.ok()) << "trial=" << trial << " k=" << k;
      const int eff_k = static_cast<int>(lloyd->means.size());
      ASSERT_LE(eff_k, k);

      auto optimal = KMeans1DOptimal(values, eff_k);
      ASSERT_TRUE(optimal.ok()) << "trial=" << trial << " k=" << k;
      EXPECT_LE(optimal->wcss, lloyd->wcss + 1e-9)
          << "trial=" << trial << " k=" << k;

      EXPECT_TRUE(std::is_sorted(lloyd->means.begin(), lloyd->means.end()))
          << "trial=" << trial << " k=" << k;

      std::vector<int> counts(eff_k, 0);
      for (int a : lloyd->assignment) {
        ASSERT_GE(a, 0);
        ASSERT_LT(a, eff_k);
        counts[a]++;
      }
      for (int c : counts) {
        EXPECT_GT(c, 0) << "empty cluster, trial=" << trial << " k=" << k;
      }

      // Contiguity: sort (value, cluster) pairs; ids must be non-decreasing.
      std::vector<std::pair<double, int>> pairs;
      for (size_t i = 0; i < values.size(); ++i) {
        pairs.emplace_back(values[i], lloyd->assignment[i]);
      }
      std::sort(pairs.begin(), pairs.end());
      for (size_t i = 1; i < pairs.size(); ++i) {
        EXPECT_LE(pairs[i - 1].second, pairs[i].second)
            << "non-contiguous cluster, trial=" << trial << " k=" << k;
      }
    }
  }
}

TEST(KMeans1DOptimalTest, InvalidArgs) {
  EXPECT_FALSE(KMeans1DOptimal({1.0}, 0).ok());
  EXPECT_FALSE(KMeans1DOptimal({1.0}, 2).ok());
}

TEST(KMeans1DOptimalTest, KEqualsNIsZero) {
  std::vector<double> values = {4.0, 1.0, 3.0};
  auto r = KMeans1DOptimal(values, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->wcss, 0.0, 1e-12);
}

TEST(KMeans1DOptimalTest, DuplicatesHandled) {
  std::vector<double> values(50, 2.0);
  auto r = KMeans1DOptimal(values, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->wcss, 0.0, 1e-12);
}

class DpSweep : public ::testing::TestWithParam<int> {};

TEST_P(DpSweep, AssignmentConsistentWithBoundaries) {
  Rng rng(100 + GetParam());
  std::vector<double> values;
  for (int i = 0; i < 150; ++i) values.push_back(rng.NextDouble(0, 1));
  auto r = KMeans1DOptimal(values, GetParam());
  ASSERT_TRUE(r.ok());
  // Clusters are contiguous in sorted order: lower value => lower-or-equal
  // cluster id under the sorted means.
  std::vector<std::pair<double, int>> pairs;
  for (size_t i = 0; i < values.size(); ++i) {
    pairs.emplace_back(values[i], r->assignment[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].second, pairs[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, DpSweep, ::testing::Values(2, 3, 4, 6, 10, 20));

}  // namespace
}  // namespace roadpart
