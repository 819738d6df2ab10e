#include "network/network_io.h"

#include <limits>
#include <sstream>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {

namespace {
constexpr char kRoadnetFormat[] = "roadnet";
constexpr char kDensitiesFormat[] = "densities";
constexpr char kPartitionFormat[] = "partition-csv";
constexpr int kNetworkIoVersion = 1;

// Reads a "<tag> <count>" line. The count sizes nothing, so a forged one
// meets the end of input rather than a huge allocation.
Result<int> ReadCount(TextRecords& records, std::string_view tag) {
  RP_RETURN_IF_ERROR(records.Next(2));
  if (records.Field(0) != tag) {
    return records.Error("expected '" + std::string(tag) + " <count>'");
  }
  return records.IntField(1, 0);
}

}  // namespace

Status SaveRoadNetwork(const RoadNetwork& network, const std::string& path,
                       const RetryOptions& retry) {
  std::ostringstream out;
  out << "# roadnet v1\n";
  out << "I " << network.num_intersections() << "\n";
  for (const Intersection& it : network.intersections()) {
    out << StrPrintf("%.6f %.6f\n", it.position.x, it.position.y);
  }
  out << "S " << network.num_segments() << "\n";
  for (const RoadSegment& s : network.segments()) {
    out << StrPrintf("%d %d %.6f %.9f\n", s.from, s.to, s.length, s.density);
  }
  return WriteArtifact(path, kRoadnetFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<RoadNetwork> LoadRoadNetwork(const std::string& path,
                                    const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(TextRecords records,
                      TextRecords::Read(path, kRoadnetFormat, ' ', retry));
  RP_ASSIGN_OR_RETURN(const int num_intersections, ReadCount(records, "I"));
  std::vector<Intersection> intersections;
  for (int i = 0; i < num_intersections; ++i) {
    RP_RETURN_IF_ERROR(records.Next(2));
    Intersection& it = intersections.emplace_back();
    RP_ASSIGN_OR_RETURN(it.position.x, records.DoubleField(0));
    RP_ASSIGN_OR_RETURN(it.position.y, records.DoubleField(1));
  }
  RP_ASSIGN_OR_RETURN(const int num_segments, ReadCount(records, "S"));
  std::vector<RoadSegment> segments;
  for (int i = 0; i < num_segments; ++i) {
    RP_RETURN_IF_ERROR(records.Next(4));
    RoadSegment& s = segments.emplace_back();
    RP_ASSIGN_OR_RETURN(s.from, records.IntField(0));
    RP_ASSIGN_OR_RETURN(s.to, records.IntField(1));
    RP_ASSIGN_OR_RETURN(s.length, records.DoubleField(2));
    RP_ASSIGN_OR_RETURN(s.density, records.DoubleField(3));
  }
  RP_RETURN_IF_ERROR(records.Finish());
  return RoadNetwork::Create(std::move(intersections), std::move(segments));
}

Status SaveDensities(const std::vector<double>& densities,
                     const std::string& path, const RetryOptions& retry) {
  std::ostringstream out;
  for (double d : densities) out << StrPrintf("%.9f\n", d);
  return WriteArtifact(path, kDensitiesFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<std::vector<double>> LoadDensities(const std::string& path,
                                          const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(TextRecords records,
                      TextRecords::Read(path, kDensitiesFormat, ' ', retry));
  std::vector<double> densities;
  while (!records.Done()) {
    RP_RETURN_IF_ERROR(records.Next(1));
    RP_ASSIGN_OR_RETURN(const double density, records.DoubleField(0));
    densities.push_back(density);
  }
  // Fault hooks (test-only; compiled to nothing under
  // RP_DISABLE_FAULT_INJECTION): simulate sensor corruption and a short read
  // after a successful parse, so downstream sanitization is what gets tested.
  if (!densities.empty() &&
      RP_FAULT_FIRES(FaultSite::kDensityLoadNaN)) {
    if (FaultInjector* inj = GlobalFaultInjector()) {
      const int n = static_cast<int>(densities.size());
      for (int i : inj->PickIndices(n, std::max(1, n / 8))) {
        densities[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  if (!densities.empty() &&
      RP_FAULT_FIRES(FaultSite::kDensityLoadShortRead)) {
    const size_t keep = densities.size() - std::max<size_t>(
        1, densities.size() / 4);
    densities.resize(keep);
  }
  return densities;
}

Status SavePartitionCsv(const std::vector<int>& assignment,
                        const std::string& path, const RetryOptions& retry) {
  std::ostringstream out;
  out << "segment_id,partition_id\n";
  for (size_t i = 0; i < assignment.size(); ++i) {
    out << i << "," << assignment[i] << "\n";
  }
  return WriteArtifact(path, kPartitionFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<std::vector<int>> LoadPartitionCsv(const std::string& path,
                                          int num_segments,
                                          const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(TextRecords records,
                      TextRecords::Read(path, kPartitionFormat, ',', retry));
  std::vector<int> assignment(num_segments, -1);
  while (!records.Done()) {
    RP_RETURN_IF_ERROR(records.Next(2));
    if (records.IsHeader()) continue;
    RP_ASSIGN_OR_RETURN(const int64_t id, records.IntField<int64_t>(0));
    RP_ASSIGN_OR_RETURN(const int label, records.IntField(1, 0));
    if (id < 0 || id >= num_segments) {
      return Status::OutOfRange(records.At(
          StrPrintf("segment id %lld outside [0, %d)",
                    static_cast<long long>(id), num_segments)));
    }
    if (assignment[id] >= 0) {
      return records.Error(StrPrintf("duplicate segment id %lld",
                                     static_cast<long long>(id)));
    }
    assignment[id] = label;
  }
  for (int i = 0; i < num_segments; ++i) {
    if (assignment[i] < 0) {
      return Status::InvalidArgument(
          StrPrintf("%s: segment %d has no partition assignment", path.c_str(),
                    i));
    }
  }
  return assignment;
}

}  // namespace roadpart
