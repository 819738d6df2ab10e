#include "temporal/series_io.h"

#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/string_util.h"

namespace roadpart {

namespace {
constexpr char kSeriesFormat[] = "snapshot-series";
constexpr int kSeriesVersion = 1;
}  // namespace

Status SaveSnapshotSeries(const SnapshotSeries& series,
                          const std::string& path,
                          const RetryOptions& retry) {
  std::ostringstream out;
  out << "# segments: " << series.num_segments() << "\n";
  for (int t = 0; t < series.num_snapshots(); ++t) {
    out << StrPrintf("%.3f", series.timestamp(t));
    for (double d : series.densities(t)) {
      out << StrPrintf(",%.9f", d);
    }
    out << "\n";
  }
  return WriteArtifact(path, kSeriesFormat, kSeriesVersion, out.str(), retry);
}

Result<SnapshotSeries> LoadSnapshotSeries(const std::string& path,
                                          const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(TextRecords records,
                      TextRecords::Read(path, kSeriesFormat, ',', retry));
  // The first row fixes the segment count; every later row must match it.
  std::optional<SnapshotSeries> series;
  while (!records.Done()) {
    if (series) {
      RP_RETURN_IF_ERROR(records.Next(series->num_segments() + 1));
    } else {
      RP_RETURN_IF_ERROR(records.Next(2, SIZE_MAX));
      series.emplace(static_cast<int>(records.size() - 1));
    }
    RP_ASSIGN_OR_RETURN(const double timestamp, records.DoubleField(0));
    std::vector<double> densities(records.size() - 1);
    for (size_t i = 1; i < records.size(); ++i) {
      RP_ASSIGN_OR_RETURN(densities[i - 1], records.DoubleField(i));
    }
    Status appended = series->Append(timestamp, std::move(densities));
    if (!appended.ok()) return records.Error(appended.message());
  }
  if (!series) return Status::InvalidArgument(path + ": no snapshot rows");
  return std::move(*series);
}

}  // namespace roadpart
