#include "core/supergraph_io.h"

#include <utility>
#include <vector>

#include "common/string_util.h"

namespace roadpart {

namespace {
constexpr char kSupergraphFormat[] = "supergraph";
constexpr int kSupergraphVersion = 2;
}  // namespace

void AppendSupergraph(LineWriter& out, const Supergraph& supergraph) {
  out.Line("supergraph").Int(supergraph.num_road_nodes())
      .Int(supergraph.num_supernodes());
  for (const Supernode& sn : supergraph.supernodes()) {
    out.Line("sn").Double(sn.feature).IntVec(sn.members);
  }
  const CsrGraph& links = supergraph.links();
  out.Line("links").Int(links.num_nodes());
  out.Line("offsets").IntVec(links.offsets());
  out.Line("neighbors").IntVec(links.neighbors());
  out.Line("weights").DoubleVec(links.weights());
}

Result<Supergraph> ReadSupergraph(LineCursor& cursor) {
  RP_ASSIGN_OR_RETURN(int num_road_nodes, ReadInt(cursor, "supergraph"));
  RP_ASSIGN_OR_RETURN(int num_supernodes, cursor.IntField());
  if (num_road_nodes < 0 || num_supernodes < 0) {
    return Status::Corruption("'supergraph' sizes are negative");
  }
  // One line per supernode, appended as it is read: a count the lines do
  // not back ends in a truncation error, not in an allocation.
  std::vector<Supernode> supernodes;
  int64_t members = 0;
  for (int s = 0; s < num_supernodes; ++s) {
    Supernode sn;
    RP_ASSIGN_OR_RETURN(sn.feature, ReadDouble(cursor, "sn"));
    RP_ASSIGN_OR_RETURN(sn.members, cursor.IntVecField());
    members += static_cast<int64_t>(sn.members.size());
    supernodes.push_back(std::move(sn));
  }
  // The supernodes partition the road nodes. Checking the total first keeps
  // a corrupt road-node count from sizing Supergraph::Create's owner table.
  if (members != num_road_nodes) {
    return Status::Corruption(
        StrPrintf("supernodes hold %lld members for %d road nodes",
                  static_cast<long long>(members), num_road_nodes));
  }
  RP_ASSIGN_OR_RETURN(int link_nodes, ReadInt(cursor, "links"));
  RP_ASSIGN_OR_RETURN(std::vector<int64_t> offsets,
                      ReadIntVec<int64_t>(cursor, "offsets"));
  RP_ASSIGN_OR_RETURN(std::vector<int> neighbors,
                      ReadIntVec(cursor, "neighbors"));
  RP_ASSIGN_OR_RETURN(std::vector<double> weights,
                      ReadDoubleVec(cursor, "weights"));
  if (link_nodes != num_supernodes ||
      offsets.size() != static_cast<size_t>(link_nodes) + 1 ||
      neighbors.size() != weights.size()) {
    return Status::Corruption("supergraph link arrays are inconsistent");
  }
  // Adopting the raw arrays skips the sort-and-merge pass. A checksum only
  // vouches that the bytes are the ones written, not that they form a
  // graph, so the CSR invariants are validated here (Supergraph::Create then
  // validates the member partition).
  auto links = CsrGraph::FromUntrustedParts(link_nodes, std::move(offsets),
                                            std::move(neighbors),
                                            std::move(weights));
  if (!links.ok()) {
    return Status::Corruption("superlinks fail validation: " +
                              links.status().ToString());
  }
  auto supergraph = Supergraph::Create(std::move(supernodes),
                                       std::move(*links), num_road_nodes);
  if (!supergraph.ok()) {
    return Status::Corruption("supergraph fails validation: " +
                              supergraph.status().ToString());
  }
  return std::move(*supergraph);
}

Status SaveSupergraph(const Supergraph& supergraph, const std::string& path,
                      const RetryOptions& retry) {
  LineWriter out;
  AppendSupergraph(out, supergraph);
  return WriteArtifact(path, kSupergraphFormat, kSupergraphVersion,
                       out.Finish(), retry);
}

Result<Supergraph> LoadSupergraph(const std::string& path,
                                  const RetryOptions& retry) {
  ArtifactReadOptions read_options;
  read_options.expected_format = kSupergraphFormat;
  read_options.retry = retry;
  ArtifactInfo info;
  RP_ASSIGN_OR_RETURN(std::string payload,
                      ReadArtifact(path, read_options, &info));
  if (info.enveloped && info.version != kSupergraphVersion) {
    return Status::Corruption(
        StrPrintf("%s: supergraph version %d, this build reads version %d "
                  "(re-save it)",
                  path.c_str(), info.version, kSupergraphVersion));
  }
  LineCursor cursor(std::move(payload));
  RP_ASSIGN_OR_RETURN(Supergraph supergraph, ReadSupergraph(cursor));
  RP_RETURN_IF_ERROR(cursor.Finish());
  return supergraph;
}

}  // namespace roadpart
