#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace perfbench {

using namespace roadpart;

namespace {

// Seed of every generated city: one fixed city per workload, as the paper's
// datasets are fixed cities.
constexpr uint64_t kCitySeed = 1;

RoadNetwork WithField(RoadNetwork network, CongestionFieldOptions field) {
  CongestionField congestion(network, field);
  RP_CHECK(network.SetDensities(congestion.Densities()).ok());
  return network;
}

}  // namespace

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

RoadNetwork MakeM3City() {
  CongestionFieldOptions field;
  field.num_hotspots = 10;
  field.hotspot_radius_fraction = 0.15;
  field.voronoi_tiling = true;
  field.seed = kCitySeed + 1000;
  return WithField(GenerateDataset(DatasetPreset::kM3, kCitySeed).value(),
                   field);
}

RoadNetwork MakeAgCity() {
  CityOptions city;
  city.num_intersections = 470;
  city.target_segments = 800;
  city.area_sq_miles = 3.1;
  city.seed = kCitySeed;
  CongestionFieldOptions field;
  field.num_hotspots = 4;
  field.voronoi_tiling = true;
  field.seed = kCitySeed + 1000;
  return WithField(GenerateCityNetwork(city).value(), field);
}

RoadNetwork MakeM1City() {
  return GenerateDataset(DatasetPreset::kM1, kCitySeed).value();
}

SnapshotSeries MakeDriftSeries(const RoadNetwork& network, int intervals) {
  CongestionFieldOptions field;
  field.num_hotspots = 5;
  field.voronoi_tiling = true;
  field.noise_fraction = 0.02;
  field.seed = kCitySeed + 1000;
  CongestionField congestion(network, field);
  SnapshotSeries series(network.num_segments());
  for (int t = 0; t < intervals; ++t) {
    RP_CHECK(
        series.Append(t * 120.0, congestion.DensitiesAt(0.30 + 0.004 * t))
            .ok());
  }
  return series;
}

QueryBatch MakeQueryBatch(const BoundingBox& bounds, int count,
                          double range_share, uint64_t seed) {
  SplitMix rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const double side = 0.02 * bounds.WidthMetres();
  // Exactly round(range_share * count) ranges at seeded positions, so the
  // per-batch answer counts are a fixed property of the workload.
  std::vector<char> range_at(count, 0);
  const int ranges = static_cast<int>(range_share * count + 0.5);
  std::fill(range_at.begin(), range_at.begin() + ranges, 1);
  for (int i = count - 1; i > 0; --i) {
    std::swap(range_at[i], range_at[rng.Next() % (i + 1)]);
  }
  QueryBatch batch;
  batch.queries.reserve(count);
  char line[160];
  for (int i = 0; i < count; ++i) {
    const bool is_range = range_at[i] != 0;
    if (is_range) {
      const double x = rng.Uniform(bounds.min.x, bounds.max.x - side);
      const double y = rng.Uniform(bounds.min.y, bounds.max.y - side);
      std::snprintf(line, sizeof(line), "range %.3f %.3f %.3f %.3f\n", x, y,
                    x + side, y + side);
    } else {
      std::snprintf(line, sizeof(line), "point %.3f %.3f\n",
                    rng.Uniform(bounds.min.x, bounds.max.x),
                    rng.Uniform(bounds.min.y, bounds.max.y));
    }
    batch.text += line;
    // Decode the printed text, so the index replay sees the parsed values.
    Query q;
    q.is_range = is_range;
    char* cursor = line + 6;  // past "point " / "range "
    if (is_range) {
      q.box.min.x = std::strtod(cursor, &cursor);
      q.box.min.y = std::strtod(cursor, &cursor);
      q.box.max.x = std::strtod(cursor, &cursor);
      q.box.max.y = std::strtod(cursor, &cursor);
    } else {
      q.point.x = std::strtod(cursor, &cursor);
      q.point.y = std::strtod(cursor, &cursor);
    }
    batch.queries.push_back(q);
  }
  return batch;
}

}  // namespace perfbench
