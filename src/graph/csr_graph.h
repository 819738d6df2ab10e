#ifndef ROADPART_GRAPH_CSR_GRAPH_H_
#define ROADPART_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
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

/// Immutable undirected weighted graph, stored as its weighted adjacency
/// matrix A: one square, symmetric SparseMatrix with an empty diagonal, read
/// through graph accessors. Parallel edges are merged (weights summed) and
/// self-loops dropped at construction. An edge of weight exactly 0 stays
/// stored: it is topology (neighbour lists, components) and adds nothing to
/// any product with A.
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

  /// Full structural audit: SparseMatrix::Validate (offset array shape and
  /// monotonicity, strictly-sorted in-bounds neighbor rows, finite weights),
  /// then the graph's own invariants: a square matrix, no self-loops, and
  /// symmetry (every (u,v,w) has a matching (v,u,w) — required of the dual
  /// road graph). Returns the first violation. O(V + E); run behind
  /// RP_DCHECK on hot paths.
  Status Validate() const;

  int num_nodes() const { return adjacency_.rows(); }

  /// Number of undirected edges (each stored twice internally).
  int64_t num_edges() const { return adjacency_.NumNonZeros() / 2; }

  int Degree(int v) const {
    return static_cast<int>(offsets()[v + 1] - offsets()[v]);
  }

  /// Sum of incident edge weights.
  double WeightedDegree(int v) const;

  std::span<const int> Neighbors(int v) const {
    return {neighbors().data() + offsets()[v],
            static_cast<size_t>(Degree(v))};
  }

  std::span<const double> NeighborWeights(int v) const {
    return {weights().data() + offsets()[v], static_cast<size_t>(Degree(v))};
  }

  /// True if u and v are adjacent (a zero-weight edge counts). O(log deg(u)).
  bool HasEdge(int u, int v) const;

  /// Weight of edge (u, v), or 0 when absent.
  double EdgeWeight(int u, int v) const { return adjacency_.At(u, v); }

  /// Sum of all edge weights (each undirected edge counted once).
  double TotalWeight() const { return adjacency_.TotalSum() / 2.0; }

  /// The weighted adjacency matrix the graph is stored as (symmetric).
  const SparseMatrix& ToSparseMatrix() const { return adjacency_; }

  /// Returns the induced subgraph on the distinct `nodes` (relabelled
  /// 0..|nodes|-1, in the given order).
  CsrGraph InducedSubgraph(const std::vector<int>& nodes) const;

  const std::vector<int64_t>& offsets() const {
    return adjacency_.row_offsets();
  }
  const std::vector<int>& neighbors() const {
    return adjacency_.col_indices();
  }
  const std::vector<double>& weights() const { return adjacency_.values(); }

 private:
  explicit CsrGraph(SparseMatrix adjacency)
      : adjacency_(std::move(adjacency)) {}

  /// The invariants Validate() adds to a valid matrix: square, no self-loop,
  /// symmetric.
  Status ValidateUndirected() const;

  SparseMatrix adjacency_;
};

/// The graph with the same topology and each undirected edge {u, v}, u < v,
/// re-weighted to fn(u, v, w), where w is its current weight. fn runs once
/// per edge, by ascending u, then ascending v. An edge fn sets to exactly 0
/// stays stored.
template <typename WeightFn>
CsrGraph ReweightGraph(const CsrGraph& graph, WeightFn fn) {
  const int n = graph.num_nodes();
  const std::vector<int64_t>& offsets = graph.offsets();
  const std::vector<int>& neighbors = graph.neighbors();
  std::vector<double> weights(neighbors.size());
  // Rows are visited in ascending order, so the arcs u -> v into a higher
  // row v arrive by ascending u, the order in which row v stores its lower
  // neighbours: a cursor per row, from its first slot, finds each mirror.
  std::vector<int64_t> mirror(offsets.begin(), offsets.begin() + n);
  for (int u = 0; u < n; ++u) {
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const int v = neighbors[i];
      if (v > u) {
        weights[i] = weights[mirror[v]++] = fn(u, v, graph.weights()[i]);
      }
    }
  }
  return CsrGraph::FromRawParts(n, offsets, neighbors, std::move(weights));
}

}  // namespace roadpart

#endif  // ROADPART_GRAPH_CSR_GRAPH_H_
