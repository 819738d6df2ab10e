#include "serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {
namespace {

constexpr char kMagic[8] = {'r', 'p', 's', 'n', 'a', 'p', '0', '2'};
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr int64_t kMaxCount = int64_t(1) << 30;  // sanity cap on any count
constexpr double kGridTargetPerCell = 4.0;

/// On-disk header, memcpy-encoded at offset 0. Field order keeps every
/// member naturally aligned, so sizeof == 168 with no padding on any
/// supported ABI (static_assert'd below).
struct SnapshotHeader {
  char magic[8];
  uint32_t endian_tag;
  uint32_t reserved;
  int64_t num_intersections;
  int64_t num_segments;
  int64_t num_partitions;
  int64_t grid_cols;
  int64_t grid_rows;
  int64_t num_grid_entries;
  double min_x;
  double min_y;
  double cell_w;
  double cell_h;
  uint64_t source_fingerprint;
  uint64_t sections_fnv;
  uint64_t off_points;
  uint64_t off_endpoints;
  uint64_t off_midpoints;
  uint64_t off_grid_starts;
  uint64_t off_grid_entries;
  uint64_t off_labels;
  uint64_t total_size;
};
static_assert(sizeof(SnapshotHeader) == 168,
              "rpsnap v2 header layout must be exactly 168 bytes");

/// The unique section layout implied by the counts. Section order
/// (f64-sized sections before i32-sized ones is not required; what matters
/// is that every f64 section offset stays 8-aligned, which holds because
/// the header is 168 bytes and endpoint pairs are 8 bytes each).
struct Layout {
  uint64_t off_points;
  uint64_t off_endpoints;
  uint64_t off_midpoints;
  uint64_t off_grid_starts;
  uint64_t off_grid_entries;
  uint64_t off_labels;
  uint64_t total_size;  // includes the final '\n'
};

Layout ComputeLayout(int64_t ni, int64_t ns, int64_t cells, int64_t entries) {
  Layout l;
  l.off_points = sizeof(SnapshotHeader);
  l.off_endpoints = l.off_points + uint64_t(ni) * 2 * sizeof(double);
  l.off_midpoints = l.off_endpoints + uint64_t(ns) * 2 * sizeof(int32_t);
  l.off_grid_starts = l.off_midpoints + uint64_t(ns) * 2 * sizeof(double);
  l.off_grid_entries = l.off_grid_starts + uint64_t(cells + 1) * sizeof(int32_t);
  l.off_labels = l.off_grid_entries + uint64_t(entries) * sizeof(int32_t);
  l.total_size = l.off_labels + uint64_t(ns) * sizeof(int32_t) + 1;
  return l;
}

SnapshotHeader ReadHeader(const std::string& buffer) {
  SnapshotHeader h;
  RP_CHECK_GE(buffer.size(), sizeof(SnapshotHeader));
  std::memcpy(&h, buffer.data(), sizeof(h));
  return h;
}

Status CorruptField(const char* what) {
  return Status::Corruption(
      StrPrintf("rpsnap buffer: %s failed validation", what));
}

}  // namespace

uint64_t ComputeSnapshotFingerprint(const RoadNetwork& network,
                                    const std::vector<int>& labels) {
  uint64_t fnv = kFnv1a64Basis;
  const int64_t ni = network.num_intersections();
  const int64_t ns = network.num_segments();
  fnv = Fnv1a64(&ni, sizeof(ni), fnv);
  fnv = Fnv1a64(&ns, sizeof(ns), fnv);
  for (int i = 0; i < network.num_intersections(); ++i) {
    const Point& p = network.intersection(i).position;
    fnv = Fnv1a64(&p.x, sizeof(p.x), fnv);
    fnv = Fnv1a64(&p.y, sizeof(p.y), fnv);
  }
  for (int s = 0; s < network.num_segments(); ++s) {
    const int32_t ends[2] = {static_cast<int32_t>(network.segment(s).from),
                             static_cast<int32_t>(network.segment(s).to)};
    fnv = Fnv1a64(ends, sizeof(ends), fnv);
  }
  for (int label : labels) {
    const int32_t l32 = static_cast<int32_t>(label);
    fnv = Fnv1a64(&l32, sizeof(l32), fnv);
  }
  return fnv;
}

Result<Snapshot> Snapshot::Build(const RoadNetwork& network,
                                 const std::vector<int>& labels) {
  const int32_t ni = network.num_intersections();
  const int32_t ns = network.num_segments();
  if (static_cast<int64_t>(labels.size()) != ns) {
    return Status::InvalidArgument(StrPrintf(
        "snapshot labels/segment count mismatch: %zu labels for %d segments",
        labels.size(), ns));
  }
  int32_t num_partitions = 0;
  for (size_t s = 0; s < labels.size(); ++s) {
    if (labels[s] < 0 || labels[s] >= kMaxCount) {
      return Status::InvalidArgument(
          StrPrintf("snapshot label out of range: labels[%zu] = %d",
                    s, labels[s]));
    }
    num_partitions = std::max(num_partitions, labels[s] + 1);
  }

  // Flatten geometry.
  std::vector<double> points_xy(static_cast<size_t>(ni) * 2);
  for (int32_t i = 0; i < ni; ++i) {
    const Point& p = network.intersection(i).position;
    points_xy[2 * i] = p.x;
    points_xy[2 * i + 1] = p.y;
  }
  std::vector<int32_t> endpoints(static_cast<size_t>(ns) * 2);
  std::vector<double> midpoints_xy(static_cast<size_t>(ns) * 2);
  for (int32_t s = 0; s < ns; ++s) {
    endpoints[2 * s] = network.segment(s).from;
    endpoints[2 * s + 1] = network.segment(s).to;
    const Point mid = SegmentMidpoint(network, s);
    midpoints_xy[2 * s] = mid.x;
    midpoints_xy[2 * s + 1] = mid.y;
  }
  std::vector<int32_t> labels32(labels.begin(), labels.end());

  // The index is a deterministic function of the geometry alone.
  SegmentGeometryView view{points_xy.data(), endpoints.data(),
                           midpoints_xy.data(), ns};
  const GridSpec grid =
      ChooseGridSpec(network.Bounds(), ns, kGridTargetPerCell);
  std::vector<int32_t> grid_starts;
  std::vector<int32_t> grid_entries;
  BuildGridIndex(view, grid, &grid_starts, &grid_entries);

  const Layout layout =
      ComputeLayout(ni, ns, grid.NumCells(),
                    static_cast<int64_t>(grid_entries.size()));
  std::string buffer(layout.total_size, '\0');
  buffer.back() = '\n';
  auto put = [&buffer](uint64_t off, const void* data, size_t bytes) {
    if (bytes > 0) std::memcpy(&buffer[off], data, bytes);
  };
  put(layout.off_points, points_xy.data(), points_xy.size() * sizeof(double));
  put(layout.off_endpoints, endpoints.data(),
      endpoints.size() * sizeof(int32_t));
  put(layout.off_midpoints, midpoints_xy.data(),
      midpoints_xy.size() * sizeof(double));
  put(layout.off_grid_starts, grid_starts.data(),
      grid_starts.size() * sizeof(int32_t));
  put(layout.off_grid_entries, grid_entries.data(),
      grid_entries.size() * sizeof(int32_t));
  put(layout.off_labels, labels32.data(), labels32.size() * sizeof(int32_t));

  SnapshotHeader h;
  std::memset(&h, 0, sizeof(h));
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.endian_tag = kEndianTag;
  h.num_intersections = ni;
  h.num_segments = ns;
  h.num_partitions = num_partitions;
  h.grid_cols = grid.cols;
  h.grid_rows = grid.rows;
  h.num_grid_entries = static_cast<int64_t>(grid_entries.size());
  h.min_x = grid.min_x;
  h.min_y = grid.min_y;
  h.cell_w = grid.cell_w;
  h.cell_h = grid.cell_h;
  h.source_fingerprint = ComputeSnapshotFingerprint(network, labels);
  h.sections_fnv = Fnv1a64(buffer.data() + sizeof(SnapshotHeader),
                           layout.total_size - sizeof(SnapshotHeader) - 1);
  h.off_points = layout.off_points;
  h.off_endpoints = layout.off_endpoints;
  h.off_midpoints = layout.off_midpoints;
  h.off_grid_starts = layout.off_grid_starts;
  h.off_grid_entries = layout.off_grid_entries;
  h.off_labels = layout.off_labels;
  h.total_size = layout.total_size;
  put(0, &h, sizeof(h));

  return Snapshot(std::move(buffer));
}

Result<Snapshot> Snapshot::FromBuffer(std::string buffer) {
  if (buffer.size() < sizeof(SnapshotHeader) + 1) {
    return Status::Corruption(
        StrPrintf("rpsnap buffer: %zu bytes is shorter than the %zu-byte "
                  "header",
                  buffer.size(), sizeof(SnapshotHeader) + 1));
  }
  // std::string buffers this large are heap allocations aligned to
  // max_align_t; the section views depend on it.
  RP_CHECK_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % alignof(double),
              uintptr_t{0});
  const SnapshotHeader h = ReadHeader(buffer);
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return CorruptField("magic/version tag");
  }
  if (h.endian_tag != kEndianTag) return CorruptField("endianness tag");
  if (h.reserved != 0) return CorruptField("reserved header field");
  if (h.num_intersections < 0 || h.num_intersections > kMaxCount ||
      h.num_segments < 0 || h.num_segments > kMaxCount ||
      h.num_partitions < 0 || h.num_partitions > kMaxCount ||
      h.grid_cols < 1 || h.grid_cols > kMaxCount || h.grid_rows < 1 ||
      h.grid_rows > kMaxCount || h.num_grid_entries < 0 ||
      h.num_grid_entries > kMaxCount) {
    return CorruptField("section counts");
  }
  if ((h.num_segments == 0) != (h.num_partitions == 0)) {
    return CorruptField("partition count vs segment count");
  }
  const int64_t cells = h.grid_cols * h.grid_rows;
  if (cells > kMaxCount) return CorruptField("grid cell count");
  const Layout layout = ComputeLayout(h.num_intersections, h.num_segments,
                                      cells, h.num_grid_entries);
  if (h.off_points != layout.off_points ||
      h.off_endpoints != layout.off_endpoints ||
      h.off_midpoints != layout.off_midpoints ||
      h.off_grid_starts != layout.off_grid_starts ||
      h.off_grid_entries != layout.off_grid_entries ||
      h.off_labels != layout.off_labels ||
      h.total_size != layout.total_size) {
    return CorruptField("section offsets");
  }
  if (buffer.size() != layout.total_size) {
    return Status::Corruption(
        StrPrintf("rpsnap buffer: %zu bytes but header promises %llu",
                  buffer.size(),
                  static_cast<unsigned long long>(layout.total_size)));
  }
  if (buffer.back() != '\n') return CorruptField("trailing newline byte");
  if (!(std::isfinite(h.min_x) && std::isfinite(h.min_y) &&
        std::isfinite(h.cell_w) && std::isfinite(h.cell_h) &&
        h.cell_w > 0.0 && h.cell_h > 0.0)) {
    return CorruptField("grid geometry");
  }
  const uint64_t fnv =
      Fnv1a64(buffer.data() + sizeof(SnapshotHeader),
              layout.total_size - sizeof(SnapshotHeader) - 1);
  if (fnv != h.sections_fnv) {
    return Status::Corruption(
        StrPrintf("rpsnap buffer: section checksum mismatch (stored %s, "
                  "computed %s)",
                  Uint64ToHex(h.sections_fnv).c_str(),
                  Uint64ToHex(fnv).c_str()));
  }

  // Structural validation of the sections themselves.
  Snapshot snap(std::move(buffer));
  const int32_t ni = static_cast<int32_t>(h.num_intersections);
  const int32_t ns = static_cast<int32_t>(h.num_segments);
  const int32_t np = static_cast<int32_t>(h.num_partitions);
  const int32_t* endpoints = snap.Endpoints();
  const int32_t* labels = snap.Labels();
  for (int32_t s = 0; s < ns; ++s) {
    if (endpoints[2 * s] < 0 || endpoints[2 * s] >= ni ||
        endpoints[2 * s + 1] < 0 || endpoints[2 * s + 1] >= ni) {
      return CorruptField("segment endpoint ids");
    }
    if (labels[s] < 0 || labels[s] >= np) {
      return CorruptField("partition labels");
    }
  }
  const int32_t* starts = snap.GridStarts();
  if (starts[0] != 0 ||
      starts[cells] != static_cast<int32_t>(h.num_grid_entries)) {
    return CorruptField("grid CSR bounds");
  }
  for (int64_t c = 0; c < cells; ++c) {
    if (starts[c] > starts[c + 1]) return CorruptField("grid CSR monotonicity");
  }
  const int32_t* entries = snap.GridEntries();
  for (int64_t e = 0; e < h.num_grid_entries; ++e) {
    if (entries[e] < 0 || entries[e] >= ns) {
      return CorruptField("grid entry segment ids");
    }
  }
  return snap;
}

Result<Snapshot> Snapshot::Load(const std::string& path,
                                const RetryOptions& retry) {
  ArtifactReadOptions options;
  options.expected_format = "rpsnap";
  options.require_envelope = true;
  options.retry = retry;
  RP_ASSIGN_OR_RETURN(std::string payload, ReadArtifact(path, options));
  if (RP_FAULT_FIRES(FaultSite::kSnapshotShortRead)) {
    // A reader that raced a non-atomic copy: the tail of the buffer is gone.
    payload.resize(payload.size() - payload.size() / 4);
  }
  RP_ASSIGN_OR_RETURN(Snapshot snap, FromBuffer(std::move(payload)));
  if (RP_FAULT_FIRES(FaultSite::kSnapshotStaleFingerprint)) {
    return Status::Corruption(StrPrintf(
        "rpsnap %s: source fingerprint %s does not match the serving "
        "network (stale snapshot)",
        path.c_str(), Uint64ToHex(snap.source_fingerprint()).c_str()));
  }
  return snap;
}

Status Snapshot::Save(const std::string& path,
                      const RetryOptions& retry) const {
  // buffer_ already ends in '\n', so WriteArtifact checksums it unchanged
  // and Load round-trips byte-identically.
  return WriteArtifact(path, "rpsnap", 2, buffer_, retry);
}

// --- Typed views ------------------------------------------------------------

Snapshot::Snapshot(std::string buffer) : buffer_(std::move(buffer)) {
  const SnapshotHeader h = ReadHeader(buffer_);
  decoded_.num_intersections = h.num_intersections;
  decoded_.num_segments = h.num_segments;
  decoded_.num_partitions = h.num_partitions;
  decoded_.source_fingerprint = h.source_fingerprint;
  decoded_.off_points = h.off_points;
  decoded_.off_endpoints = h.off_endpoints;
  decoded_.off_midpoints = h.off_midpoints;
  decoded_.off_grid_starts = h.off_grid_starts;
  decoded_.off_grid_entries = h.off_grid_entries;
  decoded_.off_labels = h.off_labels;
  decoded_.grid.cols = static_cast<int32_t>(h.grid_cols);
  decoded_.grid.rows = static_cast<int32_t>(h.grid_rows);
  decoded_.grid.min_x = h.min_x;
  decoded_.grid.min_y = h.min_y;
  decoded_.grid.cell_w = h.cell_w;
  decoded_.grid.cell_h = h.cell_h;
}

#define RP_SNAPSHOT_SECTION_VIEW(type, field) \
  reinterpret_cast<const type*>(buffer_.data() + decoded_.field)

const int32_t* Snapshot::Endpoints() const {
  return RP_SNAPSHOT_SECTION_VIEW(int32_t, off_endpoints);
}
const int32_t* Snapshot::GridStarts() const {
  return RP_SNAPSHOT_SECTION_VIEW(int32_t, off_grid_starts);
}
const int32_t* Snapshot::GridEntries() const {
  return RP_SNAPSHOT_SECTION_VIEW(int32_t, off_grid_entries);
}
const int32_t* Snapshot::Labels() const {
  return RP_SNAPSHOT_SECTION_VIEW(int32_t, off_labels);
}

GridSpec Snapshot::Grid() const { return decoded_.grid; }

SegmentGeometryView Snapshot::Geometry() const {
  SegmentGeometryView view;
  view.points_xy = RP_SNAPSHOT_SECTION_VIEW(double, off_points);
  view.endpoints = RP_SNAPSHOT_SECTION_VIEW(int32_t, off_endpoints);
  view.midpoints_xy = RP_SNAPSHOT_SECTION_VIEW(double, off_midpoints);
  view.num_segments = static_cast<int32_t>(decoded_.num_segments);
  return view;
}

#undef RP_SNAPSHOT_SECTION_VIEW

int32_t Snapshot::num_intersections() const {
  return static_cast<int32_t>(decoded_.num_intersections);
}
int32_t Snapshot::num_segments() const {
  return static_cast<int32_t>(decoded_.num_segments);
}
int32_t Snapshot::num_partitions() const {
  return static_cast<int32_t>(decoded_.num_partitions);
}
uint64_t Snapshot::source_fingerprint() const {
  return decoded_.source_fingerprint;
}
int32_t Snapshot::partition_of_segment(int32_t segment_id) const {
  RP_CHECK_GE(segment_id, 0);
  RP_CHECK_LT(segment_id, num_segments());
  return Labels()[segment_id];
}

PointAnswer Snapshot::NearestSegment(const Point& q) const {
  RP_DCHECK(std::isfinite(q.x) && std::isfinite(q.y));
  PointAnswer answer;
  if (decoded_.num_segments == 0) return answer;
  const NearestHit best = GridRefineNearest(Geometry(), Grid(), GridStarts(),
                                            GridEntries(), q);
  answer.segment_id = best.segment_id;
  answer.partition_id = Labels()[best.segment_id];
  answer.distance = std::sqrt(best.distance_squared);
  return answer;
}

std::vector<int64_t> Snapshot::CountByPartition(const BoundingBox& box) const {
  std::vector<int64_t> counts;
  CountByPartitionInto(box, &counts);
  return counts;
}

void Snapshot::CountByPartitionInto(const BoundingBox& box,
                                    std::vector<int64_t>* counts) const {
  counts->assign(static_cast<size_t>(decoded_.num_partitions), 0);
  GridRangeCountByPartition(Geometry(), Grid(), GridStarts(), GridEntries(),
                            box, Labels(), counts);
}

}  // namespace roadpart
