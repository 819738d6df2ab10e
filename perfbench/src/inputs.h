#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Input generation. The cities and congestion series are fixed; the run
// seed draws the query streams.
// Why the cut inputs do not take the seed is recorded in perfbench/NOTES.md.

#include <cstdint>
#include <string>
#include <vector>

#include "roadpart/roadpart.h"

namespace perfbench {

/// splitmix64: a small, portable, seeded generator owned by the benchmark,
/// so inputs do not change when the library's own RNG does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

 private:
  uint64_t state_;
};

/// The M3 preset (79,487 segments) under the hotspot congestion field of
/// the paper-reproduction benches: 10 hotspots, radius 0.15, Voronoi tiling.
roadpart::RoadNetwork MakeM3City();

/// An ~800-segment generated city with a 4-hotspot tiled congestion field;
/// small enough that every alpha-Cut solve stays on a Lanczos rung.
roadpart::RoadNetwork MakeAgCity();

/// The M1 preset (17,206 segments); densities come from the series.
roadpart::RoadNetwork MakeM1City();

/// A drifting congestion series: a 5-hotspot tiled field whose hotspot
/// amplitudes drift with the time of day, 8 minutes of day per interval.
roadpart::SnapshotSeries MakeDriftSeries(const roadpart::RoadNetwork& network,
                                         int intervals);

/// One decoded query, with exactly the values its text line parses to.
struct Query {
  bool is_range = false;
  roadpart::Point point;
  roadpart::BoundingBox box;
};

struct QueryBatch {
  std::string text;  ///< one query per line, serve_loop grammar
  std::vector<Query> queries;
};

/// `count` queries over `bounds`: a `range_share` fraction of square range
/// boxes with a side of 2% of the city width at seeded positions, the rest
/// uniform points.
QueryBatch MakeQueryBatch(const roadpart::BoundingBox& bounds, int count,
                          double range_share, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
