#ifndef ROADPART_GRAPH_CONNECTED_COMPONENTS_H_
#define ROADPART_GRAPH_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <span>
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
/// rank space once; a count is then a union-find pass over the edges that
/// stay inside a bucket, with no per-node label array and no BFS.
/// CountComponents' count for `cuts` equals LabelConstrainedComponents(graph,
/// labels).num_components for the labels those cuts induce, and Label(cuts)
/// equals that BFS labelling element for element.
///
/// Only edges that can decide a count are kept: an edge (lo, hi) in rank
/// space is dropped when a common neighbour t ranks strictly between lo and
/// hi (a witness), because any bucket holding lo and hi also holds t and its
/// two edges. This is exact for every bucketing into rank intervals.
///
/// A union-find pass is one chain of dependent parent loads, so a lone count
/// waits on memory at nearly every edge. CountComponents therefore walks the
/// kept edges once per group of kCountGroupWidth cut vectors, with one parent
/// array and one bucket cursor per cut vector: the steps of different cut
/// vectors are independent and the CPU overlaps them. Each cut vector still
/// sees exactly the union sequence of a lone pass.
class BucketComponentCounter {
 public:
  /// Cut vectors counted in one walk over the kept edges.
  static constexpr int kCountGroupWidth = 4;

  /// `order[r]` is the node of rank r; it must be a permutation of
  /// [0, graph.num_nodes()).
  BucketComponentCounter(const CsrGraph& graph, const std::vector<int>& order);

  /// counts[i] = components of cuts[i] when an edge counts only inside one
  /// bucket; the last group may be narrower than kCountGroupWidth. Every
  /// cut vector must be non-decreasing with front() == 0 and back() == the
  /// node count, and `counts` must be as long as `cuts`. Read-only, so safe
  /// to call concurrently on disjoint `counts`.
  void CountComponents(std::span<const std::vector<int>> cuts,
                       std::span<int> counts) const;

  /// The components of `cuts` as node labels, numbered in ascending order of
  /// each component's smallest node id — exactly the numbering of
  /// LabelConstrainedComponents' BFS, which starts a component at each
  /// unvisited node in ascending id order.
  ComponentLabels Label(const std::vector<int>& cuts) const;

  /// Rank-space edges left after dropping those with a witness.
  int64_t kept_edges() const { return static_cast<int64_t>(edges_.size()) / 2; }

 private:
  int num_nodes_ = 0;
  // rank_of_[v] is node v's rank: the inverse of the constructor's `order`.
  std::vector<int> rank_of_;
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
