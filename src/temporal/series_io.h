#ifndef ROADPART_TEMPORAL_SERIES_IO_H_
#define ROADPART_TEMPORAL_SERIES_IO_H_

#include <string>

#include "common/durable_io.h"
#include "common/status.h"
#include "temporal/snapshot_series.h"

namespace roadpart {

/// Saves a snapshot series as time-major CSV:
///   timestamp,d0,d1,...,d{n-1}
/// One row per snapshot; a `# segments: n` comment precedes the data. The
/// file is written atomically inside the checksummed "snapshot-series"
/// artifact envelope (common/durable_io.h).
Status SaveSnapshotSeries(const SnapshotSeries& series,
                          const std::string& path,
                          const RetryOptions& retry = {});

/// Loads a series saved by SaveSnapshotSeries (or any CSV in that layout,
/// read as TextRecords: a truncated last row is kCorruption, CRLF line
/// endings are kInvalidArgument). Enveloped files are checksum-verified.
Result<SnapshotSeries> LoadSnapshotSeries(const std::string& path,
                                          const RetryOptions& retry = {});

}  // namespace roadpart

#endif  // ROADPART_TEMPORAL_SERIES_IO_H_
