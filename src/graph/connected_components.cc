#include "graph/connected_components.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/logging.h"

namespace roadpart {

namespace {

// Shared BFS labelling; `edge_allowed(u, v)` filters edges.
template <typename EdgeFilter>
ComponentLabels BfsComponents(const CsrGraph& graph, EdgeFilter edge_allowed) {
  const int n = graph.num_nodes();
  ComponentLabels out;
  out.component.assign(n, -1);
  std::queue<int> fifo;
  for (int start = 0; start < n; ++start) {
    if (out.component[start] != -1) continue;
    const int id = out.num_components++;
    out.component[start] = id;
    fifo.push(start);
    while (!fifo.empty()) {
      int u = fifo.front();
      fifo.pop();
      for (int v : graph.Neighbors(u)) {
        if (out.component[v] == -1 && edge_allowed(u, v)) {
          out.component[v] = id;
          fifo.push(v);
        }
      }
    }
  }
  return out;
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
                                               const std::vector<int>& order) {
  const int n = graph.num_nodes();
  RP_CHECK(static_cast<int>(order.size()) == n);
  std::vector<int> rank_of(n, -1);
  for (int r = 0; r < n; ++r) {
    RP_CHECK(order[r] >= 0 && order[r] < n && rank_of[order[r]] == -1);
    rank_of[order[r]] = r;
  }
  // Store each edge once, in the row of its lower rank. Filling rows while
  // the higher rank ascends leaves every row sorted without a sort pass.
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (int u = 0; u < n; ++u) {
    for (int v : graph.Neighbors(u)) {
      if (rank_of[v] < rank_of[u]) ++offsets_[rank_of[v] + 1];
    }
  }
  for (int r = 0; r < n; ++r) offsets_[r + 1] += offsets_[r];
  higher_.resize(static_cast<size_t>(offsets_[n]));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int hi = 0; hi < n; ++hi) {
    for (int v : graph.Neighbors(order[hi])) {
      const int lo = rank_of[v];
      if (lo < hi) higher_[cursor[lo]++] = hi;
    }
  }
}

int BucketComponentCounter::CountComponents(
    const std::vector<int>& cuts) const {
  const int n = static_cast<int>(offsets_.size()) - 1;
  RP_CHECK(cuts.size() >= 2 && cuts.front() == 0 && cuts.back() == n);
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) {  // path halving
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  int components = n;
  size_t bucket = 0;
  for (int r = 0; r < n; ++r) {
    while (cuts[bucket + 1] <= r) ++bucket;
    const int bucket_end = cuts[bucket + 1];
    for (int64_t e = offsets_[r]; e < offsets_[r + 1]; ++e) {
      const int s = higher_[e];
      if (s >= bucket_end) break;  // rows ascend: the rest leave the bucket
      const int a = find(r);
      const int b = find(s);
      if (a == b) continue;
      parent[std::max(a, b)] = std::min(a, b);
      --components;
    }
  }
  return components;
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
  std::queue<int> fifo;
  for (int start : subset) {
    if (visited[start]) continue;
    components.emplace_back();
    visited[start] = 1;
    fifo.push(start);
    while (!fifo.empty()) {
      int u = fifo.front();
      fifo.pop();
      components.back().push_back(u);
      for (int v : graph.Neighbors(u)) {
        if (in_subset[v] && !visited[v]) {
          visited[v] = 1;
          fifo.push(v);
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
