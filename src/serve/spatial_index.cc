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
                             const int32_t* entries, const Point& q) {
  NearestHit best;
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

void GridRangeCountByPartition(const SegmentGeometryView& view,
                               const GridSpec& spec, const int32_t* starts,
                               const int32_t* entries, const BoundingBox& box,
                               const int32_t* labels,
                               std::vector<int64_t>* counts) {
  const int32_t c0 = spec.ColOf(box.min.x);
  const int32_t c1 = spec.ColOf(box.max.x);
  const int32_t r0 = spec.RowOf(box.min.y);
  const int32_t r1 = spec.RowOf(box.max.y);
  for (int32_t r = r0; r <= r1; ++r) {
    for (int32_t c = c0; c <= c1; ++c) {
      const size_t cell = static_cast<size_t>(r) * spec.cols + c;
      const int32_t end = starts[cell + 1];
      for (int32_t i = starts[cell]; i < end; ++i) {
        const int32_t s = entries[i];
        const Point m = view.Midpoint(s);
        if (!(m.x >= box.min.x && m.x <= box.max.x && m.y >= box.min.y &&
              m.y <= box.max.y)) {
          continue;
        }
        // A segment spanning several cells is registered in each; only the
        // cell holding its midpoint counts it.
        if (spec.ColOf(m.x) != c || spec.RowOf(m.y) != r) continue;
        const int32_t label = labels[s];
        RP_DCHECK_GE(label, 0);
        RP_DCHECK_LT(static_cast<size_t>(label), counts->size());
        ++(*counts)[static_cast<size_t>(label)];
      }
    }
  }
}

}  // namespace roadpart
