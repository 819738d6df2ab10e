#ifndef ROADPART_SERVE_SNAPSHOT_H_
#define ROADPART_SERVE_SNAPSHOT_H_

/// Immutable partition-serving snapshot (`rpsnap` format).
///
/// A snapshot freezes everything the read path needs — geometry, the grid
/// index, and the per-segment partition labels — into ONE relocatable byte
/// buffer. "Relocatable" means the buffer contains only section *offsets*
/// (no pointers), so it can be memcpy'd, written to disk, read back
/// anywhere, and served from directly without a deserialization pass:
/// accessors reinterpret the section bytes in place.
///
/// Layout (rpsnap v3, little-endian, integer fields memcpy-encoded; the one
/// f64 section sits at offset 168, so it is 8-aligned):
///
///   header (168 bytes)
///     magic "rpsnap03" · endian tag 0x01020304 · counts (intersections,
///     segments, partitions, grid cols/rows/entries) · grid geometry
///     (min_x/min_y, cell_w/cell_h) · source_fingerprint · sections_fnv ·
///     six section offsets · total_size
///   points          num_intersections x {f64 x, f64 y}
///   endpoints       num_segments x {i32 from, i32 to}
///   grid home ends  cols*rows x i32 (end of each cell's home prefix)
///   grid starts     (cols*rows + 1) x i32 (CSR offsets)
///   grid entries    num_grid_entries x i32: per cell, the home segments
///                   (midpoint in the cell) in ascending id, then the rest
///                   in ascending id
///   labels          num_segments x i32 (partition id per segment)
///   '\n'            final byte, so durable_io's envelope appends nothing
///
/// Midpoints are not stored: 0.5·(a+b) from the endpoints recomputes them
/// bit for bit (MidpointOf in spatial_index.h).
///
/// Versioning rules: the magic carries the version ("rpsnap03"); any layout
/// change bumps it and old readers reject the file as corrupt rather than
/// misread it, just as this reader refuses "rpsnap01" and "rpsnap02" files
/// (re-export them). The durable_io envelope independently records format
/// "rpsnap" version 3 and checksums the whole buffer; `sections_fnv`
/// additionally checksums the bytes after the header so header-only
/// tampering and section tampering are distinguishable in error messages.
///
/// `source_fingerprint` hashes the network geometry and labels the snapshot
/// was built from; Load re-derives nothing, but callers holding the source
/// can compare fingerprints to detect a stale snapshot.

#include <cstdint>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "network/geometry.h"
#include "network/road_network.h"
#include "serve/spatial_index.h"

namespace roadpart {

/// Answer to a point lookup: the nearest segment, its partition, and the
/// (non-squared) distance. A miss — only possible on a segmentless network —
/// is {-1, -1, -1.0}.
struct PointAnswer {
  int32_t segment_id = -1;
  int32_t partition_id = -1;
  double distance = -1.0;
};

/// FNV-1a-64 over the geometry and labels a snapshot serves: intersection
/// coordinates, segment endpoints, and partition labels, in index order.
/// Build() stores it; callers compare to detect stale snapshots.
uint64_t ComputeSnapshotFingerprint(const RoadNetwork& network,
                                    const std::vector<int>& labels);

/// The immutable serving snapshot. Move-only wrapper around the single
/// buffer; all queries are const, lock-free, and deterministic, so one
/// snapshot may be shared across any number of threads.
class Snapshot {
 public:
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Builds a snapshot from a partitioned network. `labels[s]` is the
  /// partition of segment s; size must equal network.num_segments() and
  /// labels must be dense non-negative ids. Empty and zero-area networks
  /// produce valid (trivial) snapshots.
  static Result<Snapshot> Build(const RoadNetwork& network,
                                const std::vector<int>& labels);

  /// Adopts a buffer produced by Build()+buffer() or read from disk,
  /// validating structure exhaustively (magic, offsets, section sizes, id
  /// ranges, CSR bounds and monotonicity, home ends within their cell,
  /// section checksum). Any violation is a typed kCorruption.
  static Result<Snapshot> FromBuffer(std::string buffer);

  /// Reads `path` through the durable_io envelope (format "rpsnap") and
  /// validates via FromBuffer. Fault sites: kSnapshotShortRead truncates the
  /// payload before validation; kSnapshotStaleFingerprint perturbs the
  /// stored fingerprint check.
  static Result<Snapshot> Load(const std::string& path,
                               const RetryOptions& retry = {});

  /// Writes the buffer through WriteArtifact (atomic, checksummed).
  Status Save(const std::string& path, const RetryOptions& retry = {}) const;

  /// The underlying relocatable buffer (for byte-identity tests and
  /// transport). Always ends in '\n'.
  const std::string& buffer() const { return buffer_; }

  int32_t num_intersections() const;
  int32_t num_segments() const;
  int32_t num_partitions() const;
  uint64_t source_fingerprint() const;

  /// Nearest segment to `q` (grid ring scan; exactly the brute-force
  /// answer under the smallest-id tie-break). `q` must be finite. Typically
  /// reads the query's cell and its first ring, O(1) cells of ~4 segments;
  /// a query in a sparse region or far outside the network scans rings
  /// until the first hit bounds the search.
  PointAnswer NearestSegment(const Point& q) const;

  /// Per-partition counts of segments whose midpoint lies in `box` (closed
  /// bounds, not NaN), from the home prefixes of the grid cells the box
  /// overlaps. Vector has num_partitions() slots.
  std::vector<int64_t> CountByPartition(const BoundingBox& box) const;

  /// CountByPartition into a caller-owned buffer, resized to
  /// num_partitions() slots; reusing one buffer across queries keeps a
  /// range answer allocation-free.
  void CountByPartitionInto(const BoundingBox& box,
                            std::vector<int64_t>* counts) const;

 private:
  // Decodes the header into `decoded_`; callers (Build, FromBuffer) hand it
  // an already-validated buffer.
  explicit Snapshot(std::string buffer);

  // Hot-path cache of the decoded header: counts, section offsets and grid
  // geometry, filled once at construction so per-query code never re-decodes
  // the 168-byte header. Plain scalars only, so moves copy it safely.
  struct DecodedHeader {
    int64_t num_intersections = 0;
    int64_t num_segments = 0;
    int64_t num_partitions = 0;
    uint64_t source_fingerprint = 0;
    uint64_t off_points = 0;
    uint64_t off_endpoints = 0;
    uint64_t off_grid_home_ends = 0;
    uint64_t off_grid_starts = 0;
    uint64_t off_grid_entries = 0;
    uint64_t off_labels = 0;
    GridSpec grid;
  };

  // Typed views into buffer_ (computed from cached offsets; the buffer owns
  // all storage, so moves stay valid).
  const int32_t* Endpoints() const;
  const int32_t* GridHomeEnds() const;
  const int32_t* GridStarts() const;
  const int32_t* GridEntries() const;
  const int32_t* Labels() const;
  GridSpec Grid() const;
  SegmentGeometryView Geometry() const;

  std::string buffer_;
  DecodedHeader decoded_;
};

}  // namespace roadpart

#endif  // ROADPART_SERVE_SNAPSHOT_H_
