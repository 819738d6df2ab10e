#ifndef ROADPART_SERVE_SPATIAL_INDEX_H_
#define ROADPART_SERVE_SPATIAL_INDEX_H_

/// Spatial index kernels for the partition-serving read path.
///
/// One structure answers both query kinds: a uniform grid over the network
/// bounding box in which every segment is registered with each cell its
/// endpoint bounding box overlaps.
///
///  - Nearest segment: an outward ring scan from the query's cell examines
///    every segment that could still beat the best distance found so far,
///    under point-to-segment (not point-to-midpoint) distance. When the
///    query's own cell is empty the scan simply starts with no bound.
///  - Range counts: the cells a box overlaps are scanned, and a segment is
///    counted only in the one cell holding its midpoint, so it counts once.
///
/// Exact tie-break rule (asserted by tests/serve_property_test.cc): among
/// segments with bit-identical squared point-to-segment distance, the
/// smallest segment id wins. Both the index path and the O(n) brute-force
/// reference implement the rule through the single ConsiderNearest kernel,
/// so the two paths agree exactly — including on duplicate two-way geometry,
/// where ties are the common case rather than the exception.
///
/// Every function here is deterministic and thread-count-independent: the
/// grid build scans segments in id order and queries are pure reads over
/// immutable arrays.

#include <cstdint>
#include <limits>
#include <vector>

#include "network/geometry.h"
#include "network/road_network.h"

namespace roadpart {

/// Result of a nearest-segment search. `segment_id` is -1 when the network
/// has no segments; `distance_squared` is +inf in that case.
struct NearestHit {
  int32_t segment_id = -1;
  double distance_squared = std::numeric_limits<double>::infinity();
};

/// Squared Euclidean distance from `q` to the closed segment a->b. The one
/// arithmetic kernel shared by the brute-force reference and the grid
/// refinement; both search paths therefore compute bit-identical distances.
double PointSegmentDistanceSquared(const Point& q, const Point& a,
                                   const Point& b);

/// The tie-break rule in one place: `candidate` (distance d2) replaces
/// `best` when strictly closer, or equally close with a smaller id. The
/// first candidate always lands, even at d2 = +inf (a query so far out that
/// every squared distance overflows), so a search never ends empty-handed.
inline void ConsiderNearest(int32_t candidate, double d2, NearestHit* best) {
  if (best->segment_id < 0 || d2 < best->distance_squared ||
      (d2 == best->distance_squared && candidate < best->segment_id)) {
    best->segment_id = candidate;
    best->distance_squared = d2;
  }
}

/// Read-only view of segment geometry as flat arrays — the shape both the
/// snapshot buffer and the builder expose. `points_xy` holds x,y per
/// intersection; `endpoints` holds from,to per segment; `midpoints_xy`
/// holds x,y per segment (may be null for functions that do not need it).
struct SegmentGeometryView {
  const double* points_xy = nullptr;
  const int32_t* endpoints = nullptr;
  const double* midpoints_xy = nullptr;
  int32_t num_segments = 0;

  Point SegmentA(int32_t s) const {
    const int32_t p = endpoints[2 * s];
    return {points_xy[2 * p], points_xy[2 * p + 1]};
  }
  Point SegmentB(int32_t s) const {
    const int32_t p = endpoints[2 * s + 1];
    return {points_xy[2 * p], points_xy[2 * p + 1]};
  }
  Point Midpoint(int32_t s) const {
    return {midpoints_xy[2 * s], midpoints_xy[2 * s + 1]};
  }
};

/// O(n) reference scan over a RoadNetwork: ascending segment ids through
/// ConsiderNearest, so the documented tie-break holds by construction.
NearestHit BruteForceNearestSegment(const RoadNetwork& network,
                                    const Point& q);

/// Midpoint of segment `s` of `network`, as the snapshot builder computes it
/// (plain average of the endpoint coordinates).
Point SegmentMidpoint(const RoadNetwork& network, int s);

// --- Uniform grid over segment bounding boxes -------------------------------

/// Geometry of the uniform grid. Cells are cols x rows over the network
/// bounding box; degenerate (zero-area or empty) boxes collapse to one cell
/// with unit extent so arithmetic never divides by zero.
struct GridSpec {
  int32_t cols = 1;
  int32_t rows = 1;
  double min_x = 0.0;
  double min_y = 0.0;
  double cell_w = 1.0;
  double cell_h = 1.0;

  int64_t NumCells() const {
    return static_cast<int64_t>(cols) * static_cast<int64_t>(rows);
  }
  /// Column of x, clamped into [0, cols).
  int32_t ColOf(double x) const;
  /// Row of y, clamped into [0, rows).
  int32_t RowOf(double y) const;
  /// Squared distance from `q` to the closed cell (col, row); zero inside.
  double CellDistanceSquared(int32_t col, int32_t row, const Point& q) const;
};

/// Chooses the grid shape for `n` segments over `bounds`: roughly
/// `target_per_cell` segments per cell, aspect following the box, never more
/// than ~4n cells and never fewer than one.
GridSpec ChooseGridSpec(const BoundingBox& bounds, int32_t n,
                        double target_per_cell);

/// Rasterizes every segment into the cells its endpoint bounding box
/// overlaps. CSR output: `starts` gets NumCells()+1 offsets into `entries`;
/// within each cell, entries are ascending segment ids (two counting
/// passes). Conservative but sufficient: the nearest point of a segment to
/// any query lies on the segment, hence inside its endpoint bounding box,
/// hence in a registered cell.
void BuildGridIndex(const SegmentGeometryView& view, const GridSpec& spec,
                    std::vector<int32_t>* starts,
                    std::vector<int32_t>* entries);

/// Exact nearest segment: scans grid cells in outward rings from the
/// query's (clamped) cell until no unscanned cell can beat the current
/// best. Ties preserved: cells and rings are pruned only when *strictly*
/// farther than the best squared distance.
NearestHit GridRefineNearest(const SegmentGeometryView& view,
                             const GridSpec& spec, const int32_t* starts,
                             const int32_t* entries, const Point& q);

/// Adds, per partition, the number of segments whose midpoint lies in `box`
/// (closed bounds: min <= coordinate <= max) into `counts`. `labels` maps
/// segment id -> partition id; `counts` must already have one slot per
/// partition. Scans the cells [ColOf(min.x), ColOf(max.x)] x
/// [RowOf(min.y), RowOf(max.y)] and counts a segment only in the cell that
/// holds its midpoint. That counts every segment in the box exactly once:
/// ColOf/RowOf are monotone, so an inside midpoint's cell is scanned, and a
/// midpoint lies inside its segment's endpoint bounding box, so that cell is
/// one the segment is registered in.
void GridRangeCountByPartition(const SegmentGeometryView& view,
                               const GridSpec& spec, const int32_t* starts,
                               const int32_t* entries, const BoundingBox& box,
                               const int32_t* labels,
                               std::vector<int64_t>* counts);

}  // namespace roadpart

#endif  // ROADPART_SERVE_SPATIAL_INDEX_H_
