#include "graph/csr_graph.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace roadpart {

Result<CsrGraph> CsrGraph::FromEdges(int num_nodes,
                                     const std::vector<Edge>& edges) {
  if (num_nodes < 0) return Status::InvalidArgument("negative node count");
  for (const Edge& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
      return Status::OutOfRange(
          StrPrintf("edge (%d,%d) outside [0,%d)", e.u, e.v, num_nodes));
    }
  }
  // Each non-loop edge is fed to the matrix assembly in both directions; it
  // sorts each row and sums parallel edges.
  CsrGraph g(SparseMatrix::Assemble(num_nodes, num_nodes, [&edges](auto emit) {
    for (const Edge& e : edges) {
      if (e.u == e.v) continue;
      emit(e.u, e.v, e.weight);
      emit(e.v, e.u, e.weight);
    }
  }));
  RP_DCHECK_OK(g.ValidateUndirected());
  return g;
}

CsrGraph CsrGraph::FromRawParts(int num_nodes, std::vector<int64_t> offsets,
                                std::vector<int> neighbors,
                                std::vector<double> weights) {
  CsrGraph g(SparseMatrix::FromRawCsr(num_nodes, num_nodes, std::move(offsets),
                                      std::move(neighbors),
                                      std::move(weights)));
  RP_DCHECK_OK(g.ValidateUndirected());
  return g;
}

Result<CsrGraph> CsrGraph::FromUntrustedParts(int num_nodes,
                                              std::vector<int64_t> offsets,
                                              std::vector<int> neighbors,
                                              std::vector<double> weights) {
  RP_ASSIGN_OR_RETURN(
      SparseMatrix adjacency,
      SparseMatrix::FromUntrustedCsr(num_nodes, num_nodes, std::move(offsets),
                                     std::move(neighbors),
                                     std::move(weights)));
  CsrGraph g(std::move(adjacency));
  RP_RETURN_IF_ERROR(g.ValidateUndirected());
  return g;
}

Status CsrGraph::Validate() const {
  RP_RETURN_IF_ERROR(adjacency_.Validate());
  return ValidateUndirected();
}

Status CsrGraph::ValidateUndirected() const {
  const int n = num_nodes();
  if (adjacency_.cols() != n) {
    return Status::Internal(
        StrPrintf("adjacency is %d x %d, not square", n, adjacency_.cols()));
  }
  const std::vector<int64_t>& offsets = this->offsets();
  const std::vector<int>& neighbors = this->neighbors();
  const std::vector<double>& weights = this->weights();
  // Symmetry: the dual graph is undirected, so every stored arc must have its
  // reverse with an identical weight. Rows are visited in ascending order,
  // so row u meets its lower neighbours in the order it stores them: a
  // cursor per row (matched[u], the lower arcs of u matched so far) walks
  // that prefix, and each arc v -> u with u > v must find v under u's
  // cursor. A lower arc the cursor never passed has no reverse, whatever its
  // weight. A row holds fewer than n arcs, so an int counts them.
  std::vector<int> matched(n, 0);
  for (int v = 0; v < n; ++v) {
    for (int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const int u = neighbors[i];
      if (u == v) {
        return Status::Internal(StrPrintf("self-loop at node %d", v));
      }
      bool symmetric;
      if (u < v) {
        symmetric = i - offsets[v] < matched[v];
      } else {
        const int64_t r = offsets[u] + matched[u]++;
        symmetric = r < offsets[u + 1] && neighbors[r] == v &&
                    weights[r] == weights[i];
      }
      if (!symmetric) {
        return Status::Internal(
            StrPrintf("asymmetric adjacency between %d and %d", v, u));
      }
    }
  }
  return Status::OK();
}

double CsrGraph::WeightedDegree(int v) const {
  double acc = 0.0;
  for (double w : NeighborWeights(v)) acc += w;
  return acc;
}

bool CsrGraph::HasEdge(int u, int v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

CsrGraph CsrGraph::InducedSubgraph(const std::vector<int>& nodes) const {
  CsrGraph sub(adjacency_.Submatrix(nodes));
  RP_DCHECK_OK(sub.ValidateUndirected());
  return sub;
}

}  // namespace roadpart
