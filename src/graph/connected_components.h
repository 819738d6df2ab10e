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
class BucketComponentCounter {
 public:
  /// `order[r]` is the node of rank r; it must be a permutation of
  /// [0, graph.num_nodes()).
  BucketComponentCounter(const CsrGraph& graph, const std::vector<int>& order);

  /// Components when an edge counts only inside one bucket. `cuts` must be
  /// non-decreasing with cuts.front() == 0 and cuts.back() == the node count.
  /// Read-only, so safe to call concurrently.
  int CountComponents(const std::vector<int>& cuts) const;

 private:
  // Row r lists the higher ranks adjacent to rank r, ascending.
  std::vector<int64_t> offsets_;
  std::vector<int> higher_;
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
