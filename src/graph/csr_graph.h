#ifndef ROADPART_GRAPH_CSR_GRAPH_H_
#define ROADPART_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "linalg/sparse_matrix.h"

namespace roadpart {

/// One undirected weighted edge used during graph assembly.
struct Edge {
  int u;
  int v;
  double weight = 1.0;
};

/// Immutable undirected graph in compressed-sparse-row form. Parallel edges
/// are merged (weights summed) and self-loops dropped at construction.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an undirected edge list over nodes [0, num_nodes).
  static Result<CsrGraph> FromEdges(int num_nodes,
                                    const std::vector<Edge>& edges);

  /// Adopts pre-built CSR arrays without the sort-and-merge pass. The caller
  /// promises the Validate() invariants (monotone offsets, sorted in-bounds
  /// neighbor rows, symmetric adjacency, finite weights); the promise is
  /// audited with RP_DCHECK in checked builds.
  static CsrGraph FromRawParts(int num_nodes, std::vector<int64_t> offsets,
                               std::vector<int> neighbors,
                               std::vector<double> weights);

  /// FromRawParts for arrays nobody vouches for (e.g. decoded from disk):
  /// runs Validate() on them and returns its first violation instead of
  /// adopting a malformed graph, in every build type.
  static Result<CsrGraph> FromUntrustedParts(int num_nodes,
                                             std::vector<int64_t> offsets,
                                             std::vector<int> neighbors,
                                             std::vector<double> weights);

  /// Full structural audit of the CSR representation: offset array shape and
  /// monotonicity, strictly-sorted in-bounds neighbor rows, no self-loops,
  /// finite weights, and adjacency symmetry (every (u,v,w) has a matching
  /// (v,u,w) — required of the dual road graph). Returns the first violation.
  /// O(V + E); run behind RP_DCHECK on hot paths.
  Status Validate() const;

  int num_nodes() const { return num_nodes_; }

  /// Number of undirected edges (each stored twice internally).
  int64_t num_edges() const {
    return static_cast<int64_t>(neighbors_.size()) / 2;
  }

  int Degree(int v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sum of incident edge weights.
  double WeightedDegree(int v) const;

  std::span<const int> Neighbors(int v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  std::span<const double> NeighborWeights(int v) const {
    return {weights_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True if u and v are adjacent. O(log deg(u)).
  bool HasEdge(int u, int v) const;

  /// Weight of edge (u, v), or 0 when absent.
  double EdgeWeight(int u, int v) const;

  /// Sum of all edge weights (each undirected edge counted once).
  double TotalWeight() const;

  /// Weighted adjacency matrix as CSR (symmetric).
  SparseMatrix ToSparseMatrix() const;

  /// Returns the induced subgraph on `nodes` (relabelled 0..|nodes|-1, in the
  /// given order).
  CsrGraph InducedSubgraph(const std::vector<int>& nodes) const;

  const std::vector<int64_t>& offsets() const { return offsets_; }
  const std::vector<int>& neighbors() const { return neighbors_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  int num_nodes_ = 0;
  std::vector<int64_t> offsets_;  // size num_nodes_+1
  std::vector<int> neighbors_;    // size 2*num_edges
  std::vector<double> weights_;   // parallel to neighbors_
};

}  // namespace roadpart

#endif  // ROADPART_GRAPH_CSR_GRAPH_H_
