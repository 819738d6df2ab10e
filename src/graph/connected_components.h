#ifndef ROADPART_GRAPH_CONNECTED_COMPONENTS_H_
#define ROADPART_GRAPH_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"

namespace roadpart {

/// Result of a connected-components pass: `component[v]` is the 0-based
/// component id of node v; ids are dense in [0, num_components).
struct ComponentLabels {
  std::vector<int> component;
  int num_components = 0;
};

/// Standard FIFO (BFS) connected components over the whole graph —
/// the substrate the paper's Algorithm 1 uses (O(max(n, m))).
ComponentLabels ConnectedComponents(const CsrGraph& graph);

/// Connected components where an edge (u,v) only counts when
/// `labels[u] == labels[v]` — the supernode-creation step of Algorithm 1:
/// nodes are merged when clustered together AND adjacent in the road graph.
ComponentLabels LabelConstrainedComponents(const CsrGraph& graph,
                                           const std::vector<int>& labels);

/// Counts label-constrained components for many labellings of one graph
/// whose labels are contiguous *rank buckets*: nodes are ranked by a fixed
/// permutation, and a labelling cuts the rank axis into runs (bucket b holds
/// ranks [cuts[b], cuts[b+1])) — the shape of every 1-D k-means clustering
/// over one sort order (KMeans1DResult::cuts). The graph is relabelled into
/// rank space once; each count is then one union-find pass over the edges
/// that stay inside a bucket, with no per-node label array and no BFS.
/// CountComponents(cuts) equals LabelConstrainedComponents(graph, labels)
/// .num_components for the labels those cuts induce.
///
/// Only edges that can decide a count are kept: an edge (lo, hi) in rank
/// space is dropped when a common neighbour t ranks strictly between lo and
/// hi (a witness), because any bucket holding lo and hi also holds t and its
/// two edges. This is exact for every bucketing into rank intervals.
class BucketComponentCounter {
 public:
  /// `order[r]` is the node of rank r; it must be a permutation of
  /// [0, graph.num_nodes()).
  BucketComponentCounter(const CsrGraph& graph, const std::vector<int>& order);

  /// Components when an edge counts only inside one bucket. `cuts` must be
  /// non-decreasing with cuts.front() == 0 and cuts.back() == the node count.
  /// Read-only, so safe to call concurrently.
  int CountComponents(const std::vector<int>& cuts) const;

  /// Rank-space edges left after dropping those with a witness.
  int64_t kept_edges() const { return static_cast<int64_t>(edges_.size()) / 2; }

 private:
  int num_nodes_ = 0;
  // The rank-space edges without a witness as (lo, hi) pairs, lo < hi, by
  // ascending lo: edge e is edges_[2e], edges_[2e + 1].
  std::vector<int> edges_;
};

/// Components of the subgraph induced on `subset` (ids refer to positions in
/// `subset`). Returns one vector of *original* node ids per component.
std::vector<std::vector<int>> ComponentsOfSubset(const CsrGraph& graph,
                                                 const std::vector<int>& subset);

/// True if the induced subgraph on `subset` is connected (empty and singleton
/// subsets count as connected) — condition C.2 of the problem definition.
bool IsSubsetConnected(const CsrGraph& graph, const std::vector<int>& subset);

}  // namespace roadpart

#endif  // ROADPART_GRAPH_CONNECTED_COMPONENTS_H_
