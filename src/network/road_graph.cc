#include "network/road_graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace roadpart {

CsrGraph BuildDualAdjacency(const RoadNetwork& network) {
  // Two segments are adjacent when they share an intersection, so segment
  // s's row is the union of the incidence lists at its two endpoints, minus
  // s itself. The two lists can both hold a segment (two segments sharing
  // both endpoints, e.g. the two directions of a two-way road); sort +
  // unique keeps the adjacency binary. The relation is symmetric and every
  // row comes out sorted, so the rows go straight into CSR.
  const int n = network.num_segments();
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
  std::vector<int> neighbors;
  std::vector<int> row;
  for (int s = 0; s < n; ++s) {
    const RoadSegment& segment = network.segment(s);
    const std::vector<int>& at_from = network.SegmentsAt(segment.from);
    const std::vector<int>& at_to = network.SegmentsAt(segment.to);
    row.assign(at_from.begin(), at_from.end());
    row.insert(row.end(), at_to.begin(), at_to.end());
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (int t : row) {
      if (t != s) neighbors.push_back(t);
    }
    offsets[s + 1] = static_cast<int64_t>(neighbors.size());
  }
  std::vector<double> weights(neighbors.size(), 1.0);
  return CsrGraph::FromRawParts(n, std::move(offsets), std::move(neighbors),
                                std::move(weights));
}

RoadGraph RoadGraph::FromNetwork(const RoadNetwork& network) {
  RoadGraph rg;
  rg.adjacency_ = BuildDualAdjacency(network);
  rg.features_ = network.Densities();
  return rg;
}

Result<RoadGraph> RoadGraph::FromParts(CsrGraph adjacency,
                                       std::vector<double> features) {
  if (static_cast<int>(features.size()) != adjacency.num_nodes()) {
    return Status::InvalidArgument(
        StrPrintf("feature count %zu != node count %d", features.size(),
                  adjacency.num_nodes()));
  }
  RoadGraph rg;
  rg.adjacency_ = std::move(adjacency);
  rg.features_ = std::move(features);
  return rg;
}

Status RoadGraph::SetFeatures(std::vector<double> features) {
  if (static_cast<int>(features.size()) != adjacency_.num_nodes()) {
    return Status::InvalidArgument(
        StrPrintf("feature count %zu != node count %d", features.size(),
                  adjacency_.num_nodes()));
  }
  features_ = std::move(features);
  return Status::OK();
}

}  // namespace roadpart
