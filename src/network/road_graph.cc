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
  // s itself. Incidence lists are filled in segment order, so each ascends
  // and holds a segment once (there are no self-loops); their merge is
  // ascending too and keeps a segment listed at both endpoints (e.g. the
  // other direction of a two-way road) once, so the adjacency is binary.
  // The relation is symmetric, so the rows go straight into CSR.
  const int n = network.num_segments();
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
  // Row s holds at most both lists' lengths minus 2: s is in each.
  size_t bound = 0;
  for (int s = 0; s < n; ++s) {
    const RoadSegment& segment = network.segment(s);
    bound += network.SegmentsAt(segment.from).size() +
             network.SegmentsAt(segment.to).size() - 2;
  }
  std::vector<int> neighbors(bound);
  size_t size = 0;
  for (int s = 0; s < n; ++s) {
    const RoadSegment& segment = network.segment(s);
    const std::vector<int>& at_from = network.SegmentsAt(segment.from);
    const std::vector<int>& at_to = network.SegmentsAt(segment.to);
    auto a = at_from.begin();
    auto b = at_to.begin();
    auto emit = [&](int t) {
      if (t != s) neighbors[size++] = t;
    };
    while (a != at_from.end() && b != at_to.end()) {
      const int x = *a;
      const int y = *b;
      a += x <= y;
      b += y <= x;
      emit(std::min(x, y));
    }
    for (; a != at_from.end(); ++a) emit(*a);
    for (; b != at_to.end(); ++b) emit(*b);
    offsets[s + 1] = static_cast<int64_t>(size);
  }
  neighbors.resize(size);
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
