#ifndef ROADPART_NETWORK_NETWORK_IO_H_
#define ROADPART_NETWORK_NETWORK_IO_H_

#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "network/road_network.h"

namespace roadpart {

/// Serializes a road network to a simple line-oriented text format:
///   # roadnet v1
///   I <num_intersections>
///   <x> <y>                     (one line per intersection, id = line order)
///   S <num_segments>
///   <from> <to> <length> <density>
/// All writers in this header go through common/durable_io: atomic
/// temp-write + rename inside a checksummed artifact envelope, with optional
/// bounded transient-fault retry.
Status SaveRoadNetwork(const RoadNetwork& network, const std::string& path,
                       const RetryOptions& retry = {});

/// Loads a network saved by SaveRoadNetwork. Enveloped files are
/// checksum-verified (torn/corrupt -> kCorruption); envelope-less files are
/// accepted for hand-authored inputs. Every reader in this header parses the
/// TextRecords grammar (common/durable_io.h); a roadnet allows no record
/// after its last segment.
Result<RoadNetwork> LoadRoadNetwork(const std::string& path,
                                    const RetryOptions& retry = {});

/// Writes one density per line.
Status SaveDensities(const std::vector<double>& densities,
                     const std::string& path, const RetryOptions& retry = {});

/// Reads densities written by SaveDensities.
Result<std::vector<double>> LoadDensities(const std::string& path,
                                          const RetryOptions& retry = {});

/// Writes "segment_id,partition_id" CSV with a header.
Status SavePartitionCsv(const std::vector<int>& assignment,
                        const std::string& path,
                        const RetryOptions& retry = {});

/// Reads a partition CSV written by SavePartitionCsv. Every segment in
/// [0, num_segments) must be assigned exactly once, to a label in
/// [0, INT_MAX]; ids outside the range are kOutOfRange, and missing or
/// duplicate ids are kInvalidArgument.
Result<std::vector<int>> LoadPartitionCsv(const std::string& path,
                                          int num_segments,
                                          const RetryOptions& retry = {});

}  // namespace roadpart

#endif  // ROADPART_NETWORK_NETWORK_IO_H_
