#include "graph/connected_components.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/logging.h"

namespace roadpart {

namespace {

// Shared BFS labelling; `edge_allowed(u, v)` filters edges.
template <typename EdgeFilter>
ComponentLabels BfsComponents(const CsrGraph& graph, EdgeFilter edge_allowed) {
  const int n = graph.num_nodes();
  ComponentLabels out;
  out.component.assign(n, -1);
  std::vector<int> fifo(n);  // each node enters once
  for (int start = 0; start < n; ++start) {
    if (out.component[start] != -1) continue;
    const int id = out.num_components++;
    out.component[start] = id;
    int head = 0;
    int tail = 0;
    fifo[tail++] = start;
    while (head < tail) {
      const int u = fifo[head++];
      for (int v : graph.Neighbors(u)) {
        if (out.component[v] == -1 && edge_allowed(u, v)) {
          out.component[v] = id;
          fifo[tail++] = v;
        }
      }
    }
  }
  return out;
}

// One walk over the kept rank-space edges `edges` ((lo, hi) pairs by
// ascending lo) for W cut vectors at once. `parent` holds W arrays of n ints
// back to back, array k for cuts[k]; each ends as cut vector k's union-find
// forest, and counts[k] as its component count.
//
// Edges are visited by descending lo, so lo is still a singleton when its
// first edge comes and stays its set's root through its run of edges: every
// union hangs the other root under lo. An edge leaving lo's bucket is turned
// into the no-op union of lo with itself instead of a branch. The W finds of
// one edge touch different arrays and do not depend on each other, so their
// loads overlap; each array sees exactly the union sequence of a lone pass.
template <int W>
void UnionInBuckets(const std::vector<int>& edges, int n,
                    const std::vector<int>* cuts, int* parent, int* counts) {
  size_t bucket[W];
  int components[W];
  for (int k = 0; k < W; ++k) {
    RP_CHECK(cuts[k].size() >= 2 && cuts[k].front() == 0 &&
             cuts[k].back() == n);
    std::iota(parent + static_cast<size_t>(k) * n,
              parent + static_cast<size_t>(k + 1) * n, 0);
    bucket[k] = cuts[k].size() - 2;
    components[k] = n;
  }
  for (int64_t e = static_cast<int64_t>(edges.size()) / 2 - 1; e >= 0; --e) {
    const int lo = edges[2 * e];
    const int hi = edges[2 * e + 1];
#pragma GCC unroll 4
    for (int k = 0; k < W; ++k) {
      const int* c = cuts[k].data();
      while (c[bucket[k]] > lo) --bucket[k];
      int* p = parent + static_cast<size_t>(k) * n;
      int x = hi < c[bucket[k] + 1] ? hi : lo;
      while (p[x] != x) {  // path halving
        p[x] = p[p[x]];
        x = p[x];
      }
      p[x] = lo;
      components[k] -= x != lo;
    }
  }
  for (int k = 0; k < W; ++k) counts[k] = components[k];
}

}  // namespace

ComponentLabels ConnectedComponents(const CsrGraph& graph) {
  return BfsComponents(graph, [](int, int) { return true; });
}

ComponentLabels LabelConstrainedComponents(const CsrGraph& graph,
                                           const std::vector<int>& labels) {
  RP_CHECK(static_cast<int>(labels.size()) == graph.num_nodes());
  return BfsComponents(
      graph, [&labels](int u, int v) { return labels[u] == labels[v]; });
}

BucketComponentCounter::BucketComponentCounter(const CsrGraph& graph,
                                               const std::vector<int>& order)
    : num_nodes_(graph.num_nodes()) {
  const int n = num_nodes_;
  RP_CHECK(static_cast<int>(order.size()) == n);
  rank_of_.assign(n, -1);
  for (int r = 0; r < n; ++r) {
    RP_CHECK(order[r] >= 0 && order[r] < n && rank_of_[order[r]] == -1);
    rank_of_[order[r]] = r;
  }
  // The graph in rank space, one row per rank, built in edges_. offsets[r+1]
  // starts at row r's begin and is its fill cursor, so it ends at row r's
  // end. Filling rows while the neighbour rank ascends leaves every row
  // sorted without a sort pass.
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (int r = 0; r + 1 < n; ++r) {
    offsets[r + 2] = offsets[r + 1] + graph.Degree(order[r]);
  }
  edges_.resize(static_cast<size_t>(2 * graph.num_edges()));
  for (int s = 0; s < n; ++s) {
    for (int v : graph.Neighbors(order[s])) {
      edges_[offsets[rank_of_[v] + 1]++] = s;
    }
  }

  // Keep edge (lo, hi) only without a witness: a common neighbour t with
  // lo < t < hi. A bucket is a rank interval, so one holding lo and hi holds
  // t and both of t's edges, whose spans are shorter; by induction on span,
  // a dropped edge's ends stay connected through kept edges inside [lo, hi],
  // and every count is unchanged. The candidates for t are lo's higher
  // neighbours below hi and hi's lower neighbours above lo: two sorted runs
  // to intersect. lo's lowest higher neighbour has none.
  //
  // The kept higher ranks are compacted in place into a CSR of kept rows:
  // row lo is copied out first and its kept entries written back from the
  // first free slot, which is at or before row lo's begin, so the rows above
  // lo that the merges read are never overwritten.
  std::vector<int> higher;  // row lo's higher ranks, ascending
  int64_t kept = 0;
  int64_t row_begin = 0;
  for (int lo = 0; lo < n; ++lo) {
    const int64_t row_end = offsets[lo + 1];
    higher.assign(
        std::upper_bound(edges_.begin() + row_begin, edges_.begin() + row_end,
                         lo),
        edges_.begin() + row_end);
    offsets[lo] = kept;
    for (size_t j = 0; j < higher.size(); ++j) {
      const int hi = higher[j];
      auto a = higher.begin();  // lo's side: higher[0, j)
      const auto a_end = higher.begin() + static_cast<int64_t>(j);
      const int* b = edges_.data() + offsets[hi];
      const int* b_end = edges_.data() + offsets[hi + 1];
      bool witnessed = false;
      while (a != a_end && b != b_end && *b < hi) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          witnessed = true;
          break;
        }
      }
      if (!witnessed) edges_[kept++] = hi;
    }
    row_begin = row_end;
  }
  offsets[n] = kept;

  // Spread the kept rows into (lo, hi) pairs in place, from the back: edge
  // e lands in slots 2e and 2e + 1, above every entry not yet moved.
  edges_.resize(static_cast<size_t>(2 * kept));
  for (int lo = n - 1; lo >= 0; --lo) {
    for (int64_t e = offsets[lo + 1] - 1; e >= offsets[lo]; --e) {
      edges_[2 * e + 1] = edges_[e];
      edges_[2 * e] = lo;
    }
  }
  edges_.shrink_to_fit();  // the rank-space graph's buffer is not needed
}

void BucketComponentCounter::CountComponents(
    std::span<const std::vector<int>> cuts, std::span<int> counts) const {
  RP_CHECK(counts.size() == cuts.size());
  // The walk for a group of w cut vectors is kernels[w - 1].
  using Kernel = void (*)(const std::vector<int>&, int,
                          const std::vector<int>*, int*, int*);
  constexpr Kernel kernels[] = {UnionInBuckets<1>, UnionInBuckets<2>,
                                UnionInBuckets<3>, UnionInBuckets<4>};
  constexpr size_t kWidth = kCountGroupWidth;
  static_assert(std::size(kernels) == kWidth);
  std::vector<int> parent(std::min(kWidth, cuts.size()) *
                          static_cast<size_t>(num_nodes_));
  for (size_t g = 0; g < cuts.size(); g += kWidth) {
    kernels[std::min(kWidth, cuts.size() - g) - 1](
        edges_, num_nodes_, cuts.data() + g, parent.data(), counts.data() + g);
  }
}

ComponentLabels BucketComponentCounter::Label(
    const std::vector<int>& cuts) const {
  const int n = num_nodes_;
  ComponentLabels out;
  // The union-find forest, rank-indexed, from the same pass as a count.
  std::vector<int> parent(n);
  UnionInBuckets<1>(edges_, n, &cuts, parent.data(), &out.num_components);
  // Number the roots in ascending order of their smallest node id: visit
  // nodes by id and give a root the next id when it is first reached. A
  // numbered root stores ~id (< 0) in place of itself; path splitting may
  // copy that ~id into a node on the path, which then reads as the same
  // numbered root. So the walk stops at a self-parent (an unnumbered root)
  // or at a negative entry.
  out.component.resize(n);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    int x = rank_of_[v];
    while (parent[x] >= 0 && parent[x] != x) {  // path splitting
      const int up = parent[x];
      parent[x] = parent[up];
      x = up;
    }
    if (parent[x] >= 0) parent[x] = ~next++;
    out.component[v] = ~parent[x];
  }
  RP_DCHECK(next == out.num_components);
  return out;
}

std::vector<std::vector<int>> ComponentsOfSubset(
    const CsrGraph& graph, const std::vector<int>& subset) {
  std::vector<char> in_subset(graph.num_nodes(), 0);
  for (int v : subset) {
    RP_CHECK(v >= 0 && v < graph.num_nodes());
    in_subset[v] = 1;
  }
  std::vector<char> visited(graph.num_nodes(), 0);
  std::vector<std::vector<int>> components;
  for (int start : subset) {
    if (visited[start]) continue;
    // The member list is its own FIFO: members are listed in BFS order.
    std::vector<int>& members = components.emplace_back();
    visited[start] = 1;
    members.push_back(start);
    for (size_t head = 0; head < members.size(); ++head) {
      const int u = members[head];
      for (int v : graph.Neighbors(u)) {
        if (in_subset[v] && !visited[v]) {
          visited[v] = 1;
          members.push_back(v);
        }
      }
    }
  }
  return components;
}

bool IsSubsetConnected(const CsrGraph& graph, const std::vector<int>& subset) {
  if (subset.size() <= 1) return true;
  return ComponentsOfSubset(graph, subset).size() == 1;
}

}  // namespace roadpart
