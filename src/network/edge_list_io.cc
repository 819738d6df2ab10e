#include "network/edge_list_io.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/string_util.h"
#include "network/geometry.h"

namespace roadpart {

namespace {

constexpr char kNodesFormat[] = "edge-list-nodes";
constexpr char kEdgesFormat[] = "edge-list-edges";
constexpr int kEdgeListVersion = 1;

}  // namespace

Result<RoadNetwork> LoadEdgeListNetwork(const std::string& nodes_csv_path,
                                        const std::string& edges_csv_path,
                                        const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(
      TextRecords nodes,
      TextRecords::Read(nodes_csv_path, kNodesFormat, ',', retry));
  std::map<int64_t, int> id_map;
  std::vector<Intersection> intersections;
  while (!nodes.Done()) {
    RP_RETURN_IF_ERROR(nodes.Next(3));
    if (nodes.IsHeader()) continue;
    RP_ASSIGN_OR_RETURN(const int64_t id, nodes.IntField<int64_t>(0));
    RP_ASSIGN_OR_RETURN(const double x, nodes.DoubleField(1));
    RP_ASSIGN_OR_RETURN(const double y, nodes.DoubleField(2));
    if (!id_map.emplace(id, static_cast<int>(intersections.size())).second) {
      return nodes.Error(
          StrPrintf("duplicate node id %lld", static_cast<long long>(id)));
    }
    intersections.push_back({Point{x, y}});
  }

  RP_ASSIGN_OR_RETURN(
      TextRecords edges,
      TextRecords::Read(edges_csv_path, kEdgesFormat, ',', retry));
  std::vector<RoadSegment> segments;
  while (!edges.Done()) {
    RP_RETURN_IF_ERROR(edges.Next(2, 5));
    if (edges.IsHeader()) continue;
    RP_ASSIGN_OR_RETURN(const int64_t from_id, edges.IntField<int64_t>(0));
    RP_ASSIGN_OR_RETURN(const int64_t to_id, edges.IntField<int64_t>(1));
    auto from_it = id_map.find(from_id);
    auto to_it = id_map.find(to_id);
    if (from_it == id_map.end() || to_it == id_map.end()) {
      return edges.Error(StrPrintf("edge references unknown node (%lld,%lld)",
                                   static_cast<long long>(from_id),
                                   static_cast<long long>(to_id)));
    }
    const int from = from_it->second;
    const int to = to_it->second;
    double length = Distance(intersections[from].position,
                             intersections[to].position);
    if (!edges.Field(2).empty()) {
      RP_ASSIGN_OR_RETURN(length, edges.DoubleField(2));
      if (!(length > 0.0 && std::isfinite(length))) {
        return edges.Error(StrPrintf(
            "field 3: length must be positive and finite, got %.17g",
            length));
      }
    } else if (length <= 0.0) {
      length = 1.0;  // blank length over degenerate geometry
    }
    int oneway = 0;
    if (!edges.Field(3).empty()) {
      RP_ASSIGN_OR_RETURN(oneway, edges.IntField(3, 0, 1));
    }
    double density = 0.0;
    if (!edges.Field(4).empty()) {
      RP_ASSIGN_OR_RETURN(density, edges.DoubleField(4));
    }
    segments.push_back({from, to, length, density});
    if (oneway == 0) segments.push_back({to, from, length, density});
  }
  return RoadNetwork::Create(std::move(intersections), std::move(segments));
}

Status SaveEdgeListNetwork(const RoadNetwork& network,
                           const std::string& nodes_csv_path,
                           const std::string& edges_csv_path,
                           const RetryOptions& retry) {
  {
    std::ostringstream out;
    out << "node_id,x,y\n";
    for (int i = 0; i < network.num_intersections(); ++i) {
      const Point& p = network.intersection(i).position;
      out << StrPrintf("%d,%.6f,%.6f\n", i, p.x, p.y);
    }
    RP_RETURN_IF_ERROR(WriteArtifact(nodes_csv_path, kNodesFormat,
                                     kEdgeListVersion, out.str(), retry));
  }

  // Fold two-way pairs: a reverse twin (same endpoints, opposite direction)
  // with an unused index turns a row into oneway=0.
  std::set<std::pair<int, int>> remaining;
  for (int i = 0; i < network.num_segments(); ++i) {
    const RoadSegment& s = network.segment(i);
    remaining.insert({s.from, s.to});
  }
  std::ostringstream out;
  out << "from_id,to_id,length,oneway,density\n";
  for (int i = 0; i < network.num_segments(); ++i) {
    const RoadSegment& s = network.segment(i);
    if (!remaining.count({s.from, s.to})) continue;  // folded already
    remaining.erase({s.from, s.to});
    bool two_way = remaining.count({s.to, s.from}) > 0;
    if (two_way) remaining.erase({s.to, s.from});
    out << StrPrintf("%d,%d,%.6f,%d,%.9f\n", s.from, s.to, s.length,
                     two_way ? 0 : 1, s.density);
  }
  return WriteArtifact(edges_csv_path, kEdgesFormat, kEdgeListVersion,
                       out.str(), retry);
}

}  // namespace roadpart
