#ifndef ROADPART_SERVE_SPATIAL_INDEX_H_
#define ROADPART_SERVE_SPATIAL_INDEX_H_

/// Spatial index kernels for the partition-serving read path.
///
/// Two structures cooperate to answer "which road segment (and therefore
/// which partition) is nearest to this coordinate?":
///
///  - a static, left-balanced KD-tree over segment *midpoints*, stored as a
///    heap-ordered permutation of segment ids (one int32 per segment, no
///    child pointers). A nearest-midpoint descent is O(log n) and yields a
///    tight upper bound on the true nearest-segment distance, because a
///    segment's midpoint lies on the segment.
///  - a uniform grid over the network bounding box in which every segment is
///    registered with each cell its endpoint bounding box overlaps. Seeded
///    with the KD bound, an outward ring scan over grid cells examines every
///    segment that could still beat the bound and refines to the exact
///    nearest segment under point-to-segment (not point-to-midpoint)
///    distance.
///
/// Exact tie-break rule (asserted by tests/serve_property_test.cc): among
/// segments with bit-identical squared point-to-segment distance, the
/// smallest segment id wins. Both the index path and the O(n) brute-force
/// reference implement the rule through the single ConsiderNearest kernel,
/// so the two paths agree exactly — including on duplicate two-way geometry,
/// where ties are the common case rather than the exception.
///
/// Every function here is deterministic and thread-count-independent: the
/// KD build uses a total order (coordinate, then id) and queries are pure
/// reads over immutable arrays.

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
/// arithmetic kernel shared by the brute-force reference, the KD seed, and
/// the grid refinement; both search paths therefore compute bit-identical
/// distances.
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

/// O(n) reference scan over a flat geometry view: ascending segment ids
/// through ConsiderNearest, so the documented tie-break holds by
/// construction.
NearestHit BruteForceNearestSegment(const SegmentGeometryView& view,
                                    const Point& q);

/// Convenience overload for tests: the same scan over a RoadNetwork.
NearestHit BruteForceNearestSegment(const RoadNetwork& network,
                                    const Point& q);

/// Midpoint of segment `s` of `network`, as the snapshot builder computes it
/// (plain average of the endpoint coordinates).
Point SegmentMidpoint(const RoadNetwork& network, int s);

// --- KD-tree over midpoints -------------------------------------------------

/// Builds the left-balanced KD-tree: returns a heap-ordered permutation of
/// [0, n) where slot k holds the segment whose midpoint splits that
/// subtree, and slots 2k+1 / 2k+2 root the children. Splitting alternates
/// x/y by depth; the splitting order is the total order (coordinate, id), so
/// the tree is unique regardless of duplicate coordinates.
std::vector<int32_t> BuildKdTree(const double* midpoints_xy, int32_t n);

/// Nearest *midpoint* under the same tie-break rule. Exact (with
/// backtracking); for midpoint queries and as a robust refinement seed.
NearestHit KdNearestMidpoint(const double* midpoints_xy, const int32_t* heap,
                             int32_t n, const Point& q);

/// Greedy root-to-leaf descent toward `q`: visits only the O(log n) nodes
/// on the descent path (no backtracking) and returns the best midpoint seen.
/// NOT the exact nearest midpoint — a cheap upper bound for seeding
/// GridRefineNearest, which produces the exact answer for any valid seed.
NearestHit KdDescendSeed(const double* midpoints_xy, const int32_t* heap,
                         int32_t n, const Point& q);

/// Adds, per partition, the number of segments whose midpoint lies in `box`
/// (closed bounds: min <= coordinate <= max) into `counts`. `labels` maps
/// segment id -> partition id; `counts` must already have one slot per
/// partition.
void KdRangeCountByPartition(const double* midpoints_xy, const int32_t* heap,
                             int32_t n, const BoundingBox& box,
                             const int32_t* labels,
                             std::vector<int64_t>* counts);

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

/// Exact nearest segment: refines `seed` (any valid upper bound, typically
/// the KD midpoint hit evaluated under segment distance) by scanning grid
/// cells in outward rings until no unscanned cell can beat the current
/// best. Ties preserved: cells and rings are pruned only when *strictly*
/// farther than the best squared distance.
NearestHit GridRefineNearest(const SegmentGeometryView& view,
                             const GridSpec& spec, const int32_t* starts,
                             const int32_t* entries, const Point& q,
                             NearestHit seed);

}  // namespace roadpart

#endif  // ROADPART_SERVE_SPATIAL_INDEX_H_
