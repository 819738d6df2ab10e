// Property suite for the partition-serving read path: on seeded random
// networks and query clouds, the grid index must return EXACTLY the answer
// of the O(n) brute-force nearest-segment scan — same segment id,
// bit-identical distance, same partition — including on the degenerate
// geometry the index is most likely to get wrong (duplicate two-way
// segments, collinear chains, single-segment and zero-area networks,
// queries far outside the bounding box or in empty cells between far-apart
// clusters). Range counts must equal a brute-force midpoint count, also for
// boxes whose edges lie on cell lines or on midpoint coordinates.
//
// The tie-break rule under test (documented in serve/spatial_index.h): among
// segments at bit-identical squared distance, the smallest segment id wins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::vector<int> RandomLabels(int num_segments, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> labels(static_cast<size_t>(num_segments));
  for (int& l : labels) l = static_cast<int>(rng.NextBounded(k));
  if (num_segments > 0) labels[0] = k - 1;  // keep num_partitions() == k
  return labels;
}

Snapshot MustBuild(const RoadNetwork& net, const std::vector<int>& labels) {
  auto snap = Snapshot::Build(net, labels);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

/// Seeded query cloud: 60% uniform over the (slightly inflated) bounding
/// box, 20% jittered onto random segments (exercises near-zero and tied
/// distances), 20% far outside the box (exercises clamped grid rings).
std::vector<Point> QueryCloud(const RoadNetwork& net, int count,
                              uint64_t seed) {
  Rng rng(seed);
  const BoundingBox box = net.Bounds();
  const double w = std::max(box.max.x - box.min.x, 1.0);
  const double h = std::max(box.max.y - box.min.y, 1.0);
  std::vector<Point> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const uint64_t mode = rng.NextBounded(10);
    Point q;
    if (mode < 6 || net.num_segments() == 0) {
      q.x = rng.NextDouble(box.min.x - 0.05 * w, box.max.x + 0.05 * w);
      q.y = rng.NextDouble(box.min.y - 0.05 * h, box.max.y + 0.05 * h);
    } else if (mode < 8) {
      const int s = static_cast<int>(rng.NextBounded(net.num_segments()));
      const Point a = net.intersection(net.segment(s).from).position;
      const Point b = net.intersection(net.segment(s).to).position;
      const double t = rng.NextDouble();
      q.x = a.x + t * (b.x - a.x) + rng.NextGaussian(0.0, 0.01 * w);
      q.y = a.y + t * (b.y - a.y) + rng.NextGaussian(0.0, 0.01 * h);
    } else {
      const double sx = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
      const double sy = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
      q.x = box.min.x + sx * rng.NextDouble(2.0, 50.0) * w;
      q.y = box.min.y + sy * rng.NextDouble(2.0, 50.0) * h;
    }
    queries.push_back(q);
  }
  return queries;
}

/// The core property: index answer == brute-force answer, exactly.
void ExpectIndexMatchesBruteForce(const Snapshot& snap, const RoadNetwork& net,
                                  const std::vector<int>& labels,
                                  const std::vector<Point>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const PointAnswer got = snap.NearestSegment(queries[i]);
    const NearestHit want = BruteForceNearestSegment(net, queries[i]);
    ASSERT_EQ(got.segment_id, want.segment_id)
        << "query " << i << " at (" << queries[i].x << ", " << queries[i].y
        << ")";
    ASSERT_EQ(got.distance, std::sqrt(want.distance_squared))
        << "query " << i;
    ASSERT_EQ(got.partition_id,
              labels[static_cast<size_t>(want.segment_id)]);
  }
}

/// Two copies of one small city, the second shifted 20 city-widths up and to
/// the right. The grid spans both, so almost every cell is empty and a query
/// between the clusters starts its ring scan with no bound.
RoadNetwork TwoFarApartClusters() {
  CityOptions city;
  city.num_intersections = 150;
  city.target_segments = 260;
  city.seed = 61;
  const RoadNetwork one = GenerateCityNetwork(city).value();
  const BoundingBox box = one.Bounds();
  const double shift = 20.0 * std::max(box.max.x - box.min.x,
                                       box.max.y - box.min.y);
  std::vector<Intersection> nodes = one.intersections();
  std::vector<RoadSegment> segs = one.segments();
  const int ni = one.num_intersections();
  for (int i = 0; i < ni; ++i) {
    Intersection far = one.intersection(i);
    far.position.x += shift;
    far.position.y += shift;
    nodes.push_back(far);
  }
  for (int s = 0; s < one.num_segments(); ++s) {
    RoadSegment far = one.segment(s);
    far.from += ni;
    far.to += ni;
    segs.push_back(far);
  }
  return RoadNetwork::Create(std::move(nodes), std::move(segs)).value();
}

TEST(ServePropertyTest, MatchesBruteForceOnCityNetworks) {
  for (uint64_t seed : {11u, 29u, 47u}) {
    CityOptions city;
    city.num_intersections = 500;
    city.target_segments = 900;
    city.area_sq_miles = 4.0;
    city.seed = seed;
    auto net = GenerateCityNetwork(city);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    const std::vector<int> labels =
        RandomLabels(net->num_segments(), 7, seed + 1);
    const Snapshot snap = MustBuild(*net, labels);
    // 10k+ randomized queries per seed, per the acceptance criteria.
    ExpectIndexMatchesBruteForce(snap, *net, labels,
                                 QueryCloud(*net, 10000, seed + 2));
  }

  const RoadNetwork clusters = TwoFarApartClusters();
  const std::vector<int> labels = RandomLabels(clusters.num_segments(), 7, 62);
  const Snapshot snap = MustBuild(clusters, labels);
  ExpectIndexMatchesBruteForce(snap, clusters, labels,
                               QueryCloud(clusters, 10000, 63));
}

TEST(ServePropertyTest, MatchesBruteForceOnTwoWayGridsAndTiesPickSmallestId) {
  // Grid networks model two-way roads as opposite segment pairs sharing both
  // endpoints — identical geometry, so exact distance ties are the common
  // case here, not the exception.
  GridOptions grid;
  grid.rows = 14;
  grid.cols = 17;
  grid.two_way_fraction = 1.0;
  grid.seed = 5;
  auto net = GenerateGridNetwork(grid);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = RandomLabels(net->num_segments(), 5, 6);
  const Snapshot snap = MustBuild(*net, labels);
  const std::vector<Point> queries = QueryCloud(*net, 10000, 7);
  ExpectIndexMatchesBruteForce(snap, *net, labels, queries);

  // Explicit tie-break audit on a subset: whenever several segments achieve
  // the winning distance, the winner must be the smallest id among them.
  int ties_seen = 0;
  for (size_t i = 0; i < queries.size(); i += 50) {
    const PointAnswer got = snap.NearestSegment(queries[i]);
    const double best_d2 = got.distance * got.distance;
    int smallest_at_best = -1;
    int at_best = 0;
    for (int s = 0; s < net->num_segments(); ++s) {
      const Point a = net->intersection(net->segment(s).from).position;
      const Point b = net->intersection(net->segment(s).to).position;
      // Bit-identical distance computation via the shared kernel.
      if (PointSegmentDistanceSquared(queries[i], a, b) ==
          PointSegmentDistanceSquared(
              queries[i],
              net->intersection(net->segment(got.segment_id).from).position,
              net->intersection(net->segment(got.segment_id).to).position)) {
        if (smallest_at_best < 0) smallest_at_best = s;
        ++at_best;
      }
    }
    (void)best_d2;
    ASSERT_EQ(got.segment_id, smallest_at_best);
    if (at_best > 1) ++ties_seen;
  }
  // The whole point of this fixture: ties must actually occur.
  EXPECT_GT(ties_seen, 0);
}

TEST(ServePropertyTest, SingleSegmentNetwork) {
  std::vector<Intersection> nodes = {{{0.0, 0.0}}, {{10.0, 0.0}}};
  std::vector<RoadSegment> segs = {{0, 1, 10.0, 0.5}};
  auto net = RoadNetwork::Create(nodes, segs);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = {0};
  const Snapshot snap = MustBuild(*net, labels);
  EXPECT_EQ(snap.num_segments(), 1);
  EXPECT_EQ(snap.num_partitions(), 1);
  for (const Point& q : std::vector<Point>{{0.0, 0.0},
                                           {10.0, 0.0},
                                           {5.0, 0.0},
                                           {5.0, 3.0},
                                           {-4.0, -3.0},
                                           {1e6, 1e6}}) {
    const PointAnswer a = snap.NearestSegment(q);
    EXPECT_EQ(a.segment_id, 0);
    EXPECT_EQ(a.partition_id, 0);
    const NearestHit bf = BruteForceNearestSegment(*net, q);
    EXPECT_EQ(a.distance, std::sqrt(bf.distance_squared));
  }
  // On-segment queries are exact zeros, not epsilons.
  EXPECT_EQ(snap.NearestSegment({5.0, 0.0}).distance, 0.0);
}

TEST(ServePropertyTest, CollinearChainSharedEndpointsTieToSmallestId) {
  // Five collinear segments along y = 0. A query directly above a shared
  // endpoint is equidistant from the two segments meeting there; the
  // smaller id must win, and all answers must equal brute force.
  std::vector<Intersection> nodes;
  for (int i = 0; i <= 5; ++i) nodes.push_back({{double(i), 0.0}});
  std::vector<RoadSegment> segs;
  for (int i = 0; i < 5; ++i) segs.push_back({i, i + 1, 1.0, 0.1});
  auto net = RoadNetwork::Create(nodes, segs);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = {0, 1, 2, 1, 0};
  const Snapshot snap = MustBuild(*net, labels);
  for (int i = 1; i < 5; ++i) {
    const Point above_shared_endpoint{double(i), 2.0};
    const PointAnswer a = snap.NearestSegment(above_shared_endpoint);
    EXPECT_EQ(a.segment_id, i - 1) << "shared endpoint " << i;
    EXPECT_EQ(a.distance, 2.0);
  }
  ExpectIndexMatchesBruteForce(snap, *net, labels,
                               QueryCloud(*net, 10000, 99));
}

TEST(ServePropertyTest, ZeroAreaNetworkAllPointsIdentical) {
  // Regression for the PR-4 class of degenerate-input bugs: every
  // intersection at the same coordinate means a zero-area bounding box,
  // zero-length segment geometry, and all-identical midpoints. The snapshot
  // must build, round-trip, and answer exactly like brute force (all
  // segments tie; id 0 wins).
  std::vector<Intersection> nodes = {{{2.0, 3.0}}, {{2.0, 3.0}}, {{2.0, 3.0}}};
  std::vector<RoadSegment> segs = {
      {0, 1, 1.0, 0.1}, {1, 2, 1.0, 0.2}, {2, 0, 1.0, 0.3}};
  auto net = RoadNetwork::Create(nodes, segs);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = {0, 1, 0};
  const Snapshot snap = MustBuild(*net, labels);
  auto reloaded = Snapshot::FromBuffer(snap.buffer());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  for (const Point& q : std::vector<Point>{{2.0, 3.0},
                                           {0.0, 0.0},
                                           {-1e7, 1e7},
                                           {2.0, 2.9999}}) {
    const PointAnswer a = snap.NearestSegment(q);
    EXPECT_EQ(a.segment_id, 0);  // perfect tie among all three -> smallest id
    EXPECT_EQ(a.partition_id, 0);
    const NearestHit bf = BruteForceNearestSegment(*net, q);
    EXPECT_EQ(a.distance, std::sqrt(bf.distance_squared));
  }
}

TEST(ServePropertyTest, EmptyNetworkServesMisses) {
  auto net = RoadNetwork::Create({}, {});
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const Snapshot snap = MustBuild(*net, {});
  EXPECT_EQ(snap.num_segments(), 0);
  EXPECT_EQ(snap.num_partitions(), 0);
  const PointAnswer a = snap.NearestSegment({1.0, 2.0});
  EXPECT_EQ(a.segment_id, -1);
  EXPECT_EQ(a.partition_id, -1);
  EXPECT_EQ(a.distance, -1.0);
  EXPECT_TRUE(snap.CountByPartition({{-1e9, -1e9}, {1e9, 1e9}}).empty());
  auto reloaded = Snapshot::FromBuffer(snap.buffer());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
}

void ExpectRangeCountsMatchBruteForce(const Snapshot& snap,
                                      const RoadNetwork& net,
                                      const std::vector<int>& labels, int k,
                                      const std::vector<BoundingBox>& boxes) {
  for (size_t i = 0; i < boxes.size(); ++i) {
    const BoundingBox& box = boxes[i];
    std::vector<int64_t> want(static_cast<size_t>(k), 0);
    for (int s = 0; s < net.num_segments(); ++s) {
      const Point m = SegmentMidpoint(net, s);
      if (m.x >= box.min.x && m.x <= box.max.x && m.y >= box.min.y &&
          m.y <= box.max.y) {
        ++want[static_cast<size_t>(labels[static_cast<size_t>(s)])];
      }
    }
    ASSERT_EQ(snap.CountByPartition(box), want)
        << "box " << i << " [" << box.min.x << ", " << box.max.x << "] x ["
        << box.min.y << ", " << box.max.y << "]";
  }
}

/// Boxes whose edges sit exactly where the grid count could go wrong:
///  - on the cell lines of the snapshot's grid (the builder's
///    ChooseGridSpec(bounds, ns, 4.0)), so a box edge and a cell edge
///    coincide;
///  - on the midpoint coordinates of segments that straddle two or more
///    cells, so the closed-box test decides at equality for a segment that
///    is registered in several scanned cells.
std::vector<BoundingBox> EdgeBoxes(const RoadNetwork& net, uint64_t seed) {
  const BoundingBox bounds = net.Bounds();
  const GridSpec spec = ChooseGridSpec(bounds, net.num_segments(), 4.0);
  Rng rng(seed);
  std::vector<BoundingBox> boxes;
  auto line_x = [&](int32_t c) { return spec.min_x + c * spec.cell_w; };
  auto line_y = [&](int32_t r) { return spec.min_y + r * spec.cell_h; };
  for (int i = 0; i < 150; ++i) {
    int32_t c0 = static_cast<int32_t>(rng.NextBounded(spec.cols + 1));
    int32_t c1 = static_cast<int32_t>(rng.NextBounded(spec.cols + 1));
    int32_t r0 = static_cast<int32_t>(rng.NextBounded(spec.rows + 1));
    int32_t r1 = static_cast<int32_t>(rng.NextBounded(spec.rows + 1));
    if (c0 > c1) std::swap(c0, c1);
    if (r0 > r1) std::swap(r0, r1);
    boxes.push_back({{line_x(c0), line_y(r0)}, {line_x(c1), line_y(r1)}});
  }
  // Every single cell, closed on all four lines.
  for (int32_t r = 0; r < spec.rows; ++r) {
    for (int32_t c = 0; c < spec.cols; ++c) {
      boxes.push_back({{line_x(c), line_y(r)}, {line_x(c + 1), line_y(r + 1)}});
    }
  }
  const double w = bounds.max.x - bounds.min.x;
  const double h = bounds.max.y - bounds.min.y;
  int straddlers = 0;
  for (int s = 0; s < net.num_segments(); ++s) {
    const Point a = net.intersection(net.segment(s).from).position;
    const Point b = net.intersection(net.segment(s).to).position;
    if (spec.ColOf(a.x) == spec.ColOf(b.x) &&
        spec.RowOf(a.y) == spec.RowOf(b.y)) {
      continue;
    }
    if (++straddlers > 60) break;
    const Point m = SegmentMidpoint(net, s);
    const double dx = rng.NextDouble(0.0, 0.3 * w);
    const double dy = rng.NextDouble(0.0, 0.3 * h);
    boxes.push_back({m, {m.x + dx, m.y + dy}});            // min corner on m
    boxes.push_back({{m.x - dx, m.y - dy}, m});            // max corner on m
    boxes.push_back({{m.x, bounds.min.y}, {m.x, bounds.max.y}});  // x = m.x
    boxes.push_back({{bounds.min.x, m.y}, {bounds.max.x, m.y}});  // y = m.y
    boxes.push_back({{m.x, m.y - dy}, {m.x + dx, m.y}});
  }
  EXPECT_GT(straddlers, 0);
  return boxes;
}

TEST(ServePropertyTest, RangeCountsMatchBruteForce) {
  CityOptions city;
  city.num_intersections = 400;
  city.target_segments = 700;
  city.seed = 13;
  auto net = GenerateCityNetwork(city);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const int k = 6;
  const std::vector<int> labels = RandomLabels(net->num_segments(), k, 14);
  const Snapshot snap = MustBuild(*net, labels);
  const BoundingBox bounds = net->Bounds();
  const double w = bounds.max.x - bounds.min.x;
  const double h = bounds.max.y - bounds.min.y;
  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    BoundingBox box;
    if (trial == 0) {
      box = bounds;  // everything
    } else if (trial == 1) {
      box = {{bounds.max.x + w, bounds.max.y + h},
             {bounds.max.x + 2 * w, bounds.max.y + 2 * h}};  // nothing
    } else if (trial == 2) {
      // Degenerate zero-area box directly on a midpoint: closed bounds must
      // count it.
      const Point mid = SegmentMidpoint(*net, 0);
      box = {mid, mid};
    } else {
      const double x0 = rng.NextDouble(bounds.min.x - 0.2 * w,
                                       bounds.max.x + 0.2 * w);
      const double x1 = rng.NextDouble(bounds.min.x - 0.2 * w,
                                       bounds.max.x + 0.2 * w);
      const double y0 = rng.NextDouble(bounds.min.y - 0.2 * h,
                                       bounds.max.y + 0.2 * h);
      const double y1 = rng.NextDouble(bounds.min.y - 0.2 * h,
                                       bounds.max.y + 0.2 * h);
      box = {{std::min(x0, x1), std::min(y0, y1)},
             {std::max(x0, x1), std::max(y0, y1)}};
    }
    std::vector<int64_t> want(k, 0);
    for (int s = 0; s < net->num_segments(); ++s) {
      const Point m = SegmentMidpoint(*net, s);
      if (m.x >= box.min.x && m.x <= box.max.x && m.y >= box.min.y &&
          m.y <= box.max.y) {
        ++want[static_cast<size_t>(labels[static_cast<size_t>(s)])];
      }
    }
    EXPECT_EQ(snap.CountByPartition(box), want) << "trial " << trial;
  }

  // Edge inputs for the grid count, which scans the cells a box overlaps
  // and counts a segment only in the cell holding its midpoint.
  ExpectRangeCountsMatchBruteForce(snap, *net, labels, k,
                                   EdgeBoxes(*net, 16));

  // Two-way grid: opposite segments share a midpoint, and every row or
  // column of segments shares one midpoint coordinate.
  GridOptions grid;
  grid.rows = 12;
  grid.cols = 15;
  grid.two_way_fraction = 1.0;
  grid.seed = 17;
  auto two_way = GenerateGridNetwork(grid);
  ASSERT_TRUE(two_way.ok()) << two_way.status().ToString();
  const std::vector<int> grid_labels =
      RandomLabels(two_way->num_segments(), k, 18);
  ExpectRangeCountsMatchBruteForce(MustBuild(*two_way, grid_labels), *two_way,
                                   grid_labels, k, EdgeBoxes(*two_way, 19));
}

TEST(ServePropertyTest, ServeLoopMatchesDirectApiAndNamesBadLines) {
  GridOptions grid;
  grid.rows = 8;
  grid.cols = 8;
  grid.seed = 21;
  auto net = GenerateGridNetwork(grid);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = RandomLabels(net->num_segments(), 4, 22);
  const Snapshot snap = MustBuild(*net, labels);

  std::string queries =
      "# leading comment\n"
      "point 100.0 250.5\n"
      "\n"
      "range 0 0 400 400\n"
      "point -1e4 1e4\n";
  ServeOptions options;
  std::string out;
  ASSERT_TRUE(ServeQueries(snap, queries, options, &out).ok());
  // 3 answers (comment + blank skipped), in input order.
  std::vector<std::string> lines = Split(out, '\n');
  ASSERT_EQ(lines.size(), 4u);  // trailing "" after final newline
  EXPECT_TRUE(StartsWith(lines[0], "point "));
  EXPECT_TRUE(StartsWith(lines[1], "range "));
  EXPECT_TRUE(StartsWith(lines[2], "point "));
  const PointAnswer direct = snap.NearestSegment({100.0, 250.5});
  EXPECT_EQ(lines[0], StrPrintf("point %d %d %.17g", direct.segment_id,
                                direct.partition_id, direct.distance));

  // Malformed input: typed InvalidArgument naming the 1-based line.
  for (const char* bad : {"point 1\n", "range 1 2 3\n", "point a b\n",
                          "point nan 0\n", "lookup 1 2\n"}) {
    std::string unused;
    Status st = ServeQueries(snap, std::string("# ok\n") + bad, options,
                             &unused);
    ASSERT_FALSE(st.ok()) << bad;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("line 2"), std::string::npos)
        << st.ToString();
  }
}

TEST(ServePropertyTest, ServeLoopOutputIsThreadCountInvariant) {
  CityOptions city;
  city.num_intersections = 300;
  city.target_segments = 520;
  city.seed = 31;
  auto net = GenerateCityNetwork(city);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = RandomLabels(net->num_segments(), 5, 32);
  const Snapshot snap = MustBuild(*net, labels);
  const std::vector<Point> cloud = QueryCloud(*net, 3000, 33);
  std::string queries;
  for (const Point& q : cloud) {
    queries += StrPrintf("point %.17g %.17g\n", q.x, q.y);
  }
  queries += "range 0 0 1000 1000\n";

  auto run = [&](int threads) {
    ServeOptions options;
    options.num_threads = threads;
    options.batch_size = 64;  // force many batches
    std::string out;
    Status st = ServeQueries(snap, queries, options, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
  EXPECT_EQ(static_cast<int>(Split(serial, '\n').size()),
            static_cast<int>(cloud.size()) + 2);
}

}  // namespace
}  // namespace roadpart
