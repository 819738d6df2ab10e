#include "network/road_network.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace roadpart {

Result<RoadNetwork> RoadNetwork::Create(std::vector<Intersection> intersections,
                                        std::vector<RoadSegment> segments) {
  const int ni = static_cast<int>(intersections.size());
  for (size_t i = 0; i < intersections.size(); ++i) {
    const Point& p = intersections[i].position;
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument(
          StrPrintf("intersection %zu has a non-finite position", i));
    }
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const RoadSegment& s = segments[i];
    if (s.from < 0 || s.from >= ni || s.to < 0 || s.to >= ni) {
      return Status::OutOfRange(StrPrintf(
          "segment %zu endpoints (%d,%d) outside [0,%d)", i, s.from, s.to, ni));
    }
    if (s.from == s.to) {
      return Status::InvalidArgument(
          StrPrintf("segment %zu is a self-loop at intersection %d", i, s.from));
    }
    if (!(s.length > 0.0) || !std::isfinite(s.length)) {
      return Status::InvalidArgument(
          StrPrintf("segment %zu has a non-positive or non-finite length", i));
    }
    if (s.density < 0.0) {
      return Status::InvalidArgument(
          StrPrintf("segment %zu has negative density", i));
    }
  }

  RoadNetwork net;
  net.intersections_ = std::move(intersections);
  net.segments_ = std::move(segments);
  net.incident_.assign(ni, {});
  net.outgoing_.assign(ni, {});
  for (size_t i = 0; i < net.segments_.size(); ++i) {
    const RoadSegment& s = net.segments_[i];
    net.incident_[s.from].push_back(static_cast<int>(i));
    net.incident_[s.to].push_back(static_cast<int>(i));
    net.outgoing_[s.from].push_back(static_cast<int>(i));
  }
  return net;
}

Status RoadNetwork::SetDensities(const std::vector<double>& densities) {
  if (densities.size() != segments_.size()) {
    return Status::InvalidArgument(
        StrPrintf("expected %zu densities, got %zu", segments_.size(),
                  densities.size()));
  }
  for (size_t i = 0; i < densities.size(); ++i) {
    if (densities[i] < 0.0) {
      return Status::InvalidArgument(
          StrPrintf("density %zu is negative", i));
    }
  }
  for (size_t i = 0; i < densities.size(); ++i) {
    segments_[i].density = densities[i];
  }
  return Status::OK();
}

std::vector<double> RoadNetwork::Densities() const {
  std::vector<double> d(segments_.size());
  for (size_t i = 0; i < segments_.size(); ++i) d[i] = segments_[i].density;
  return d;
}

BoundingBox RoadNetwork::Bounds() const {
  BoundingBox box;
  if (intersections_.empty()) return box;
  box.min = box.max = intersections_[0].position;
  for (const Intersection& it : intersections_) {
    box.min.x = std::min(box.min.x, it.position.x);
    box.min.y = std::min(box.min.y, it.position.y);
    box.max.x = std::max(box.max.x, it.position.x);
    box.max.y = std::max(box.max.y, it.position.y);
  }
  return box;
}

double RoadNetwork::TotalLengthMetres() const {
  double total = 0.0;
  for (const RoadSegment& s : segments_) total += s.length;
  return total;
}

}  // namespace roadpart
