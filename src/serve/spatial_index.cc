#include "serve/spatial_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace roadpart {

double PointSegmentDistanceSquared(const Point& q, const Point& a,
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

NearestHit BruteForceNearestSegment(const SegmentGeometryView& view,
                                    const Point& q) {
  NearestHit best;
  for (int32_t s = 0; s < view.num_segments; ++s) {
    ConsiderNearest(s, PointSegmentDistanceSquared(q, view.SegmentA(s),
                                                   view.SegmentB(s)),
                    &best);
  }
  return best;
}

NearestHit BruteForceNearestSegment(const RoadNetwork& network,
                                    const Point& q) {
  NearestHit best;
  for (int s = 0; s < network.num_segments(); ++s) {
    const RoadSegment& seg = network.segment(s);
    ConsiderNearest(
        static_cast<int32_t>(s),
        PointSegmentDistanceSquared(q, network.intersection(seg.from).position,
                                    network.intersection(seg.to).position),
        &best);
  }
  return best;
}

Point SegmentMidpoint(const RoadNetwork& network, int s) {
  const RoadSegment& seg = network.segment(s);
  const Point& a = network.intersection(seg.from).position;
  const Point& b = network.intersection(seg.to).position;
  return {0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
}

// --- KD-tree over midpoints -------------------------------------------------

namespace {

/// Size of the left subtree in the left-balanced (heap-layout) KD-tree of
/// `n` nodes: the left child receives a complete subtree wherever possible,
/// so child indices are always 2k+1 / 2k+2 with no gaps.
int32_t LeftSubtreeSize(int32_t n) {
  if (n <= 1) return 0;
  int shift = 1;  // height of the full upper part
  while ((int64_t(1) << (shift + 1)) - 1 < n) ++shift;
  const int32_t full = static_cast<int32_t>((int64_t(1) << shift) - 1);
  const int32_t last = n - full;               // nodes on the bottom level
  const int32_t last_left_cap = 1 << (shift - 1);
  return (full - 1) / 2 + std::min(last, last_left_cap);
}

struct KdBuildFrame {
  int32_t lo, hi;   // range of `order` feeding this subtree
  int32_t node;     // heap slot
  int32_t depth;
};

struct KdSearchFrame {
  int32_t node;
  int32_t depth;
};

}  // namespace

std::vector<int32_t> BuildKdTree(const double* midpoints_xy, int32_t n) {
  std::vector<int32_t> heap(static_cast<size_t>(std::max(n, 0)), 0);
  if (n <= 0) return heap;
  std::vector<int32_t> order(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) order[i] = i;

  std::vector<KdBuildFrame> stack;
  stack.push_back({0, n, 0, 0});
  while (!stack.empty()) {
    KdBuildFrame f = stack.back();
    stack.pop_back();
    const int32_t count = f.hi - f.lo;
    if (count <= 0) continue;
    const int axis = f.depth & 1;
    const int32_t left = LeftSubtreeSize(count);
    auto begin = order.begin() + f.lo;
    // Total order (coordinate, id): unique median even under duplicate
    // coordinates, so the tree shape is a pure function of the input.
    std::nth_element(begin, begin + left, order.begin() + f.hi,
                     [&](int32_t a, int32_t b) {
                       const double ca = midpoints_xy[2 * a + axis];
                       const double cb = midpoints_xy[2 * b + axis];
                       if (ca != cb) return ca < cb;
                       return a < b;
                     });
    heap[static_cast<size_t>(f.node)] = order[f.lo + left];
    stack.push_back({f.lo, f.lo + left, 2 * f.node + 1, f.depth + 1});
    stack.push_back({f.lo + left + 1, f.hi, 2 * f.node + 2, f.depth + 1});
  }
  return heap;
}

NearestHit KdNearestMidpoint(const double* midpoints_xy, const int32_t* heap,
                             int32_t n, const Point& q) {
  NearestHit best;
  if (n <= 0) return best;
  const double qc[2] = {q.x, q.y};
  // Recursion emulated with one frame per tree level, so the search never
  // heap-allocates (this is the serving hot path). Frame `d` remembers the
  // not-yet-visited far child of the node the current descent passed at
  // depth `d` (-1 once visited or absent) and the squared distance to that
  // node's splitting plane; `top` doubles as the depth of `node`, so the
  // split axis is `top & 1`. Depth is at most 31: counts are capped at
  // kMaxCount = 2^30 segments and the heap is left-balanced.
  struct Frame {
    int32_t far;
    double axis_d2;  // squared distance from q to the deferring split plane
  };
  Frame frames[40];
  int top = 0;
  int32_t node = 0;
  for (;;) {
    // Descend toward q, deferring far children with their plane distance.
    while (node < n) {
      const int32_t seg = heap[node];
      const int axis = top & 1;
      const double dx = qc[0] - midpoints_xy[2 * seg];
      const double dy = qc[1] - midpoints_xy[2 * seg + 1];
      ConsiderNearest(seg, dx * dx + dy * dy, &best);
      const double plane = qc[axis] - midpoints_xy[2 * seg + axis];
      const int32_t near_child = plane < 0.0 ? 2 * node + 1 : 2 * node + 2;
      const int32_t far_child = plane < 0.0 ? 2 * node + 2 : 2 * node + 1;
      RP_DCHECK_LT(top, 40);
      frames[top].far = far_child < n ? far_child : -1;
      frames[top].axis_d2 = plane * plane;
      ++top;
      node = near_child;
    }
    // Unwind to the deepest deferred subtree that can still contain a
    // winner. Ties are kept: a subtree exactly at the best distance may
    // hold a smaller id.
    node = n;
    while (top > 0) {
      Frame& f = frames[top - 1];
      if (f.far >= 0 && f.axis_d2 <= best.distance_squared) {
        node = f.far;   // lives at depth `top`, which is already correct
        f.far = -1;     // consumed; the frame stays until its level unwinds
        break;
      }
      --top;
    }
    if (node >= n) return best;
  }
}

NearestHit KdDescendSeed(const double* midpoints_xy, const int32_t* heap,
                         int32_t n, const Point& q) {
  NearestHit best;
  if (n <= 0) return best;
  const double qc[2] = {q.x, q.y};
  int32_t node = 0;
  int depth = 0;
  while (node < n) {
    const int32_t seg = heap[node];
    const double dx = qc[0] - midpoints_xy[2 * seg];
    const double dy = qc[1] - midpoints_xy[2 * seg + 1];
    ConsiderNearest(seg, dx * dx + dy * dy, &best);
    const int axis = depth & 1;
    node = qc[axis] < midpoints_xy[2 * seg + axis] ? 2 * node + 1
                                                   : 2 * node + 2;
    ++depth;
  }
  return best;
}

void KdRangeCountByPartition(const double* midpoints_xy, const int32_t* heap,
                             int32_t n, const BoundingBox& box,
                             const int32_t* labels,
                             std::vector<int64_t>* counts) {
  if (n <= 0) return;
  const double lo[2] = {box.min.x, box.min.y};
  const double hi[2] = {box.max.x, box.max.y};
  // Depth-first, each pop pushing at most its two children: the stack never
  // holds more than one pending sibling per level plus the two just pushed,
  // i.e. at most 32 frames for an int32 heap of depth <= 30, so a fixed
  // array replaces a per-query heap allocation.
  KdSearchFrame stack[64];
  int top = 0;
  stack[top++] = {0, 0};
  while (top > 0) {
    const KdSearchFrame f = stack[--top];
    const int32_t seg = heap[f.node];
    const int axis = f.depth & 1;
    const double mx = midpoints_xy[2 * seg];
    const double my = midpoints_xy[2 * seg + 1];
    if (mx >= lo[0] && mx <= hi[0] && my >= lo[1] && my <= hi[1]) {
      const int32_t label = labels[seg];
      RP_DCHECK_GE(label, 0);
      RP_DCHECK_LT(static_cast<size_t>(label), counts->size());
      ++(*counts)[static_cast<size_t>(label)];
    }
    const double split = midpoints_xy[2 * seg + axis];
    const int32_t left = 2 * f.node + 1;
    const int32_t right = 2 * f.node + 2;
    // Left subtree holds coordinates <= split, right holds >= split.
    RP_DCHECK_LE(top + 2, 64);
    if (left < n && lo[axis] <= split) stack[top++] = {left, f.depth + 1};
    if (right < n && hi[axis] >= split) {
      stack[top++] = {right, f.depth + 1};
    }
  }
}

// --- Uniform grid over segment bounding boxes -------------------------------

int32_t GridSpec::ColOf(double x) const {
  const double f = std::floor((x - min_x) / cell_w);
  if (!(f > 0.0)) return 0;  // also catches NaN from degenerate input
  if (f >= cols) return cols - 1;
  return static_cast<int32_t>(f);
}

int32_t GridSpec::RowOf(double y) const {
  const double f = std::floor((y - min_y) / cell_h);
  if (!(f > 0.0)) return 0;
  if (f >= rows) return rows - 1;
  return static_cast<int32_t>(f);
}

double GridSpec::CellDistanceSquared(int32_t col, int32_t row,
                                     const Point& q) const {
  const double cx0 = min_x + col * cell_w;
  const double cy0 = min_y + row * cell_h;
  const double dx = std::max({0.0, cx0 - q.x, q.x - (cx0 + cell_w)});
  const double dy = std::max({0.0, cy0 - q.y, q.y - (cy0 + cell_h)});
  return dx * dx + dy * dy;
}

GridSpec ChooseGridSpec(const BoundingBox& bounds, int32_t n,
                        double target_per_cell) {
  GridSpec spec;
  spec.min_x = bounds.min.x;
  spec.min_y = bounds.min.y;
  const double width = std::max(bounds.max.x - bounds.min.x, 0.0);
  const double height = std::max(bounds.max.y - bounds.min.y, 0.0);
  if (n <= 0 || width <= 0.0 || height <= 0.0) {
    // Empty or zero-area network: one cell with unit extent. Every query
    // clamps into it; no arithmetic divides by zero.
    spec.cols = 1;
    spec.rows = 1;
    spec.cell_w = std::max(width, 1.0);
    spec.cell_h = std::max(height, 1.0);
    return spec;
  }
  if (target_per_cell < 1.0) target_per_cell = 1.0;
  const double want_cells =
      std::clamp(static_cast<double>(n) / target_per_cell, 1.0,
                 4.0 * static_cast<double>(n) + 64.0);
  const double aspect = width / height;
  double cols = std::sqrt(want_cells * aspect);
  spec.cols = std::max<int32_t>(1, static_cast<int32_t>(std::lround(cols)));
  spec.rows = std::max<int32_t>(
      1, static_cast<int32_t>(std::lround(want_cells / spec.cols)));
  spec.cell_w = width / spec.cols;
  spec.cell_h = height / spec.rows;
  return spec;
}

void BuildGridIndex(const SegmentGeometryView& view, const GridSpec& spec,
                    std::vector<int32_t>* starts,
                    std::vector<int32_t>* entries) {
  const int64_t num_cells = spec.NumCells();
  starts->assign(static_cast<size_t>(num_cells) + 1, 0);
  auto cell_range = [&](int32_t s, int32_t* c0, int32_t* c1, int32_t* r0,
                        int32_t* r1) {
    const Point a = view.SegmentA(s);
    const Point b = view.SegmentB(s);
    *c0 = spec.ColOf(std::min(a.x, b.x));
    *c1 = spec.ColOf(std::max(a.x, b.x));
    *r0 = spec.RowOf(std::min(a.y, b.y));
    *r1 = spec.RowOf(std::max(a.y, b.y));
  };
  // Pass 1: per-cell occupancy counts.
  for (int32_t s = 0; s < view.num_segments; ++s) {
    int32_t c0, c1, r0, r1;
    cell_range(s, &c0, &c1, &r0, &r1);
    for (int32_t r = r0; r <= r1; ++r) {
      for (int32_t c = c0; c <= c1; ++c) {
        ++(*starts)[static_cast<size_t>(r) * spec.cols + c + 1];
      }
    }
  }
  for (size_t i = 1; i < starts->size(); ++i) (*starts)[i] += (*starts)[i - 1];
  // Pass 2: fill. Ascending segment order per cell falls out of the scan
  // order, which is what keeps tie-breaks and scan order deterministic.
  entries->assign(static_cast<size_t>(starts->back()), 0);
  std::vector<int32_t> cursor(starts->begin(), starts->end() - 1);
  for (int32_t s = 0; s < view.num_segments; ++s) {
    int32_t c0, c1, r0, r1;
    cell_range(s, &c0, &c1, &r0, &r1);
    for (int32_t r = r0; r <= r1; ++r) {
      for (int32_t c = c0; c <= c1; ++c) {
        const size_t cell = static_cast<size_t>(r) * spec.cols + c;
        (*entries)[static_cast<size_t>(cursor[cell]++)] = s;
      }
    }
  }
}

NearestHit GridRefineNearest(const SegmentGeometryView& view,
                             const GridSpec& spec, const int32_t* starts,
                             const int32_t* entries, const Point& q,
                             NearestHit seed) {
  NearestHit best = seed;
  if (view.num_segments <= 0) return best;
  const int32_t qc = spec.ColOf(q.x);
  const int32_t qr = spec.RowOf(q.y);
  const double min_dim = std::min(spec.cell_w, spec.cell_h);
  const int32_t max_ring = std::max(spec.cols, spec.rows);
  // Distance from q to the start cell = distance from q to the whole grid
  // (the start cell contains the clamped query). Every cell is at least
  // this far, on top of its ring offset; folding it into the stop rule
  // keeps far-outside queries from marching rings across the entire grid.
  const double outside_d2 = spec.CellDistanceSquared(qc, qr, q);

  auto scan_cell = [&](int32_t c, int32_t r) {
    if (c < 0 || c >= spec.cols || r < 0 || r >= spec.rows) return;
    // Strict pruning only: a cell exactly at the best distance may hold an
    // equally-near segment with a smaller id (the documented tie-break).
    if (spec.CellDistanceSquared(c, r, q) > best.distance_squared) return;
    const size_t cell = static_cast<size_t>(r) * spec.cols + c;
    const int32_t end = starts[cell + 1];
    for (int32_t i = starts[cell]; i < end; ++i) {
      const int32_t s = entries[i];
      ConsiderNearest(
          s, PointSegmentDistanceSquared(q, view.SegmentA(s), view.SegmentB(s)),
          &best);
    }
  };

  for (int32_t ring = 0; ring <= max_ring; ++ring) {
    if (ring > 0) {
      // Any cell in ring `ring` is at least (ring-1) whole cells away from
      // the clamped query cell along some axis, so it contributes at least
      // ((ring-1)*min_dim)^2 on top of the query's distance to the grid
      // (per-axis: either q is inside the grid on that axis, or every step
      // moves further inward, so the squares add). Strictly beyond the
      // best => every later ring is too, and the scan is complete (ties
      // stay in play).
      const double lower = (ring - 1) * min_dim;
      if (outside_d2 + lower * lower > best.distance_squared) break;
    }
    if (ring == 0) {
      scan_cell(qc, qr);
      continue;
    }
    for (int32_t c = qc - ring; c <= qc + ring; ++c) {
      scan_cell(c, qr - ring);
      scan_cell(c, qr + ring);
    }
    for (int32_t r = qr - ring + 1; r <= qr + ring - 1; ++r) {
      scan_cell(qc - ring, r);
      scan_cell(qc + ring, r);
    }
  }
  return best;
}

}  // namespace roadpart
