#ifndef ROADPART_NETWORK_EDGE_LIST_IO_H_
#define ROADPART_NETWORK_EDGE_LIST_IO_H_

#include <string>

#include "common/durable_io.h"
#include "common/status.h"
#include "network/road_network.h"

namespace roadpart {

/// Loads a road network from the common two-CSV layout real road datasets
/// ship in (e.g. OpenStreetMap extracts post-processed with osmnx):
///
///   nodes.csv:  node_id,x,y                    (header optional)
///   edges.csv:  from_id,to_id[,length[,oneway[,density]]]
///
/// Both are TextRecords (common/durable_io.h): a first row with no numeric
/// field is a header, and an empty optional field takes its default.
/// - `node_id`s may be arbitrary integers; they are remapped densely.
/// - `length` defaults to the Euclidean endpoint distance (metres), or 1.0
///   when that distance is 0; an explicit length must be positive and
///   finite.
/// - `oneway` is 0 or 1 (default 0): 0 adds both directed segments.
/// - `density` (vehicles/metre) defaults to 0 and applies to both
///   directions of a two-way road.
Result<RoadNetwork> LoadEdgeListNetwork(const std::string& nodes_csv_path,
                                        const std::string& edges_csv_path,
                                        const RetryOptions& retry = {});

/// Writes the matching nodes/edges CSV pair. Two-way roads (segment pairs
/// sharing both endpoints) are folded into a single `oneway=0` row with the
/// forward direction's density. Both files are written atomically inside
/// checksummed artifact envelopes (the '#'-prefixed envelope lines read as
/// CSV comments to foreign tools).
Status SaveEdgeListNetwork(const RoadNetwork& network,
                           const std::string& nodes_csv_path,
                           const std::string& edges_csv_path,
                           const RetryOptions& retry = {});

}  // namespace roadpart

#endif  // ROADPART_NETWORK_EDGE_LIST_IO_H_
