#ifndef ROADPART_SERVE_SPATIAL_INDEX_H_
#define ROADPART_SERVE_SPATIAL_INDEX_H_

/// Spatial index kernels for the partition-serving read path.
///
/// One structure answers both query kinds: a uniform grid over the network
/// bounding box in which every segment is registered with each cell its
/// endpoint bounding box overlaps. Each cell lists its *home* entries first
/// — the segments whose midpoint 0.5·(a+b) lies in that cell by
/// ColOf/RowOf — then its other entries; both runs are in ascending id, and
/// `home_ends[cell]` marks where the first run stops. A segment whose
/// midpoint cell is one of its registered cells (always, for finite
/// coordinates: the midpoint lies in the endpoint bounding box) is a home
/// entry of exactly one cell.
///
///  - Nearest segment: an outward ring scan from the query's cell examines
///    every entry of every cell that could still beat the best distance
///    found so far, under point-to-segment (not point-to-midpoint)
///    distance. When the query's own cell is empty the scan simply starts
///    with no bound.
///  - Range counts: the cells a box overlaps are scanned, home prefix only,
///    so a segment counts once, in the cell holding its midpoint; cells
///    strictly inside the box's cell range skip the box test (proof at
///    GridRangeCountByPartition).
///
/// Exact tie-break rule (asserted by tests/serve_property_test.cc): among
/// segments with bit-identical squared point-to-segment distance, the
/// smallest segment id wins. Both the index path and the O(n) brute-force
/// reference implement the rule through the single ConsiderNearest kernel
/// over the single PointSegmentDistanceSquared kernel, so the two paths
/// agree exactly — including on duplicate two-way geometry, where ties are
/// the common case rather than the exception.
///
/// Every function here is deterministic and thread-count-independent: the
/// grid build scans segments in id order and queries are pure reads over
/// immutable arrays.

#include <algorithm>
#include <cmath>
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
/// Inline so the ring scan's inner loop carries no call.
inline double PointSegmentDistanceSquared(const Point& q, const Point& a,
                                          const Point& b) {
  const double abx = b.x - a.x;
  const double aby = b.y - a.y;
  const double len2 = abx * abx + aby * aby;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((q.x - a.x) * abx + (q.y - a.y) * aby) / len2;
    // A query ~1e154 or more away overflows the dot product, possibly to
    // inf - inf; pin that NaN to an endpoint so the distance is +inf, never
    // NaN, and the tie-break's order stays total.
    t = std::isnan(t) ? 0.0 : std::clamp(t, 0.0, 1.0);
  }
  const double dx = q.x - (a.x + t * abx);
  const double dy = q.y - (a.y + t * aby);
  return dx * dx + dy * dy;
}

/// Midpoint of the segment a->b: the plain average of the endpoint
/// coordinates. The one expression behind SegmentMidpoint, the view's
/// Midpoint and the grid's home cells, so all three agree bit for bit.
inline Point MidpointOf(const Point& a, const Point& b) {
  return {0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
}

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
/// intersection; `endpoints` holds from,to per segment. Midpoints are not
/// stored: Midpoint(s) recomputes them from the endpoints.
struct SegmentGeometryView {
  const double* points_xy = nullptr;
  const int32_t* endpoints = nullptr;
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
    return MidpointOf(SegmentA(s), SegmentB(s));
  }
};

/// O(n) reference scan over a RoadNetwork: ascending segment ids through
/// ConsiderNearest, so the documented tie-break holds by construction.
NearestHit BruteForceNearestSegment(const RoadNetwork& network,
                                    const Point& q);

/// Midpoint of segment `s` of `network` (MidpointOf its endpoints), as the
/// grid build places it.
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
/// than ~4n cells (whatever the aspect ratio) and never fewer than one.
GridSpec ChooseGridSpec(const BoundingBox& bounds, int32_t n,
                        double target_per_cell);

/// Rasterizes every segment into the cells its endpoint bounding box
/// overlaps. CSR output: `starts` gets NumCells()+1 offsets into `entries`
/// and `home_ends` NumCells() offsets, starts[c] <= home_ends[c] <=
/// starts[c+1]. Within cell c, [starts[c], home_ends[c]) holds the segments
/// whose midpoint lies in c (ColOf/RowOf of view.Midpoint) and
/// [home_ends[c], starts[c+1]) the rest; each run is in ascending segment
/// id (a counting pass, then one fill pass with a home and a rest cursor per
/// cell). Conservative but sufficient: the nearest point of a segment to
/// any query lies on the segment, hence inside its endpoint bounding box,
/// hence in a registered cell.
void BuildGridIndex(const SegmentGeometryView& view, const GridSpec& spec,
                    std::vector<int32_t>* starts,
                    std::vector<int32_t>* home_ends,
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
/// partition; the box bounds must not be NaN. Scans the home prefix of the
/// cells [c0, c1] x [r0, r1] = [ColOf(min.x), ColOf(max.x)] x
/// [RowOf(min.y), RowOf(max.y)].
///
/// Each segment counted is in the box, and each segment in the box is
/// counted exactly once:
///  - Once at most: a segment is a home entry of one cell only, the cell of
///    its midpoint.
///  - At least once: ColOf/RowOf are monotone (a subtraction and a division
///    by a positive constant, both correctly rounded, then floor and a
///    clamp), so an inside midpoint's cell lies in [c0, c1] x [r0, r1]; and
///    min(a, b) <= 0.5·(a+b) <= max(a, b) holds in floating point, so that
///    cell is one the segment is registered in, as a home entry.
///  - The box test is exact to skip in a cell with c0 < c < c1 and
///    r0 < r < r1. A home midpoint m there has ColOf(m.x) = c. Were
///    m.x < min.x, monotonicity would give c <= ColOf(min.x) = c0; were
///    m.x > max.x, it would give c >= ColOf(max.x) = c1. Both contradict
///    c0 < c < c1, so min.x <= m.x <= max.x, and likewise for y. Boundary
///    cells keep the closed-box test.
void GridRangeCountByPartition(const SegmentGeometryView& view,
                               const GridSpec& spec, const int32_t* starts,
                               const int32_t* home_ends,
                               const int32_t* entries, const BoundingBox& box,
                               const int32_t* labels,
                               std::vector<int64_t>* counts);

}  // namespace roadpart

#endif  // ROADPART_SERVE_SPATIAL_INDEX_H_
