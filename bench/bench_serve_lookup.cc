// Bench of the partition-serving read path (src/serve/) on a generated
// >=50k-segment city network:
//
//   - snapshot build + (de)serialization round trip,
//   - single-core point lookups (grid ring scan), the headline number —
//     target is >1M lookups/s on one core,
//   - range counts (grid cells under the box, each segment counted in its
//     midpoint's cell),
//   - the batched text serve loop at 1 and DefaultParallelism() threads,
//     with an answer fingerprint proving thread count changes nothing.
//
// A brute-force subsample guards against benching a wrong index. Prints one
// JSON object per line; pass --out=FILE to also write the lines atomically
// (results/BENCH_serve_lookup.json records a captured run).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"

using namespace roadpart;
using namespace roadpart::bench;

namespace {

// Synthetic but spatially coherent labels: k angular sectors around the
// network centroid, so range queries see realistic contiguous partitions.
std::vector<int> AngularSectorLabels(const RoadNetwork& net, int k) {
  double cx = 0.0, cy = 0.0;
  for (const Intersection& node : net.intersections()) {
    cx += node.position.x;
    cy += node.position.y;
  }
  if (net.num_intersections() > 0) {
    cx /= net.num_intersections();
    cy /= net.num_intersections();
  }
  std::vector<int> labels(static_cast<size_t>(net.num_segments()));
  for (int s = 0; s < net.num_segments(); ++s) {
    Point m = SegmentMidpoint(net, s);
    double angle = std::atan2(m.y - cy, m.x - cx);  // [-pi, pi]
    int sector = static_cast<int>((angle + M_PI) / (2.0 * M_PI) * k);
    labels[static_cast<size_t>(s)] = std::min(std::max(sector, 0), k - 1);
  }
  labels[0] = k - 1;  // pin num_partitions() == k
  return labels;
}

double BestOf(int runs, const std::function<double()>& fn) {
  double best = -1.0;
  for (int r = 0; r < runs; ++r) {
    double s = fn();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  std::string report;
  auto emit = [&](const std::string& line) {
    std::fputs(line.c_str(), stdout);
    report += line;
  };

  // >=50k segments: the M1/M2 scale the acceptance gate names.
  CityOptions city;
  city.num_intersections = 30000;
  city.target_segments = 52000;
  city.area_sq_miles = 40.0;
  city.seed = 17;
  RoadNetwork net = GenerateCityNetwork(city).value();
  const int k = 8;
  std::vector<int> labels = AngularSectorLabels(net, k);

  const int runs = NumRuns(5);
  const int threads = BenchThreads();

  Timer build_timer;
  Snapshot snapshot = Snapshot::Build(net, labels).value();
  double build_seconds = build_timer.Seconds();
  emit(StrPrintf("{\"bench\": \"serve_lookup\", \"segments\": %d, "
                 "\"intersections\": %d, \"partitions\": %d, "
                 "\"snapshot_bytes\": %zu, \"build_seconds\": %.6f, "
                 "\"runs\": %d, \"threads\": %d}\n",
                 snapshot.num_segments(), snapshot.num_intersections(),
                 snapshot.num_partitions(), snapshot.buffer().size(),
                 build_seconds, runs, threads));

  // Query cloud: uniform over the bounding box inflated by 5%, so a slice of
  // the queries exercises the outside-the-box search path too.
  BoundingBox box = net.Bounds();
  const double pad_x = 0.05 * (box.max.x - box.min.x);
  const double pad_y = 0.05 * (box.max.y - box.min.y);
  const int num_queries = 1'000'000;
  std::vector<Point> queries(num_queries);
  Rng rng(99);
  for (Point& q : queries) {
    q.x = box.min.x - pad_x + rng.NextDouble() * (box.max.x - box.min.x + 2 * pad_x);
    q.y = box.min.y - pad_y + rng.NextDouble() * (box.max.y - box.min.y + 2 * pad_y);
  }

  // Guard: the index must agree with brute force before its speed matters.
  for (int i = 0; i < 2000; ++i) {
    const Point& q = queries[static_cast<size_t>(i * 499)];
    NearestHit bf = BruteForceNearestSegment(net, q);
    PointAnswer got = snapshot.NearestSegment(q);
    RP_CHECK_EQ(got.segment_id, bf.segment_id);
  }

  // Headline: single-core point lookups. The checksum keeps the loop live.
  uint64_t checksum = 0;
  double lookup_seconds = BestOf(runs, [&] {
    uint64_t local = 0;
    Timer t;
    for (const Point& q : queries) {
      PointAnswer a = snapshot.NearestSegment(q);
      local += static_cast<uint64_t>(a.segment_id + a.partition_id);
    }
    double s = t.Seconds();
    checksum = local;
    return s;
  });
  emit(StrPrintf("{\"phase\": \"point_lookup_single_core\", \"queries\": %d, "
                 "\"seconds\": %.6f, \"lookups_per_second\": %.0f, "
                 "\"checksum\": \"%016llx\"}\n",
                 num_queries, lookup_seconds, num_queries / lookup_seconds,
                 static_cast<unsigned long long>(checksum)));

  // Range counts over random boxes spanning 1%-30% of each axis.
  const int num_ranges = 20000;
  std::vector<BoundingBox> boxes(num_ranges);
  for (BoundingBox& b : boxes) {
    double w = (0.01 + 0.29 * rng.NextDouble()) * (box.max.x - box.min.x);
    double h = (0.01 + 0.29 * rng.NextDouble()) * (box.max.y - box.min.y);
    double x = box.min.x + rng.NextDouble() * (box.max.x - box.min.x - w);
    double y = box.min.y + rng.NextDouble() * (box.max.y - box.min.y - h);
    b = BoundingBox{Point{x, y}, Point{x + w, y + h}};
  }
  uint64_t range_checksum = 0;
  double range_seconds = BestOf(runs, [&] {
    uint64_t local = 0;
    Timer t;
    for (const BoundingBox& b : boxes) {
      std::vector<int64_t> counts = snapshot.CountByPartition(b);
      for (int64_t c : counts) local += static_cast<uint64_t>(c);
    }
    double s = t.Seconds();
    range_checksum = local;
    return s;
  });
  emit(StrPrintf("{\"phase\": \"range_count\", \"queries\": %d, "
                 "\"seconds\": %.6f, \"ranges_per_second\": %.0f, "
                 "\"checksum\": \"%016llx\"}\n",
                 num_ranges, range_seconds, num_ranges / range_seconds,
                 static_cast<unsigned long long>(range_checksum)));

  // The text serve loop end to end (parse + lookup + render), 200k queries,
  // at 1 thread and at the default parallelism; identical output required.
  const int num_text = 200000;
  std::string query_text;
  query_text.reserve(static_cast<size_t>(num_text) * 48);
  for (int i = 0; i < num_text; ++i) {
    const Point& q = queries[static_cast<size_t>(i)];
    query_text += StrPrintf("point %.17g %.17g\n", q.x, q.y);
  }
  uint64_t fp_serial = 0;
  for (int t_count : {1, threads}) {
    uint64_t fp = 0;
    double serve_seconds = BestOf(runs, [&] {
      ServeOptions options;
      options.num_threads = t_count;
      std::string answers;
      Timer t;
      RP_CHECK_OK(ServeQueries(snapshot, query_text, options, &answers));
      double s = t.Seconds();
      fp = Fnv1a64(answers);
      return s;
    });
    if (t_count == 1) fp_serial = fp;
    RP_CHECK_EQ(fp, fp_serial);  // thread count must not change the answers
    emit(StrPrintf("{\"phase\": \"serve_loop_text\", \"threads\": %d, "
                   "\"queries\": %d, \"seconds\": %.6f, "
                   "\"queries_per_second\": %.0f, "
                   "\"answers_fingerprint\": \"%016llx\"}\n",
                   t_count, num_text, serve_seconds, num_text / serve_seconds,
                   static_cast<unsigned long long>(fp)));
    if (t_count == threads) break;  // threads may be 1
  }

  // Disk round trip: Save + Load through the checksummed envelope.
  double roundtrip_seconds = BestOf(runs, [&] {
    std::string path = "/tmp/bench_serve_lookup.rpsnap";
    Timer t;
    RP_CHECK_OK(snapshot.Save(path));
    Snapshot loaded = Snapshot::Load(path).value();
    double s = t.Seconds();
    RP_CHECK_EQ(loaded.source_fingerprint(), snapshot.source_fingerprint());
    std::remove(path.c_str());
    return s;
  });
  emit(StrPrintf("{\"phase\": \"snapshot_disk_round_trip\", "
                 "\"seconds\": %.6f}\n", roundtrip_seconds));

  if (!out_path.empty()) {
    RP_CHECK_OK(AtomicWriteFile(out_path, report));
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
