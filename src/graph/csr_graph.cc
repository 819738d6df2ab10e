#include "graph/csr_graph.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

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

  // Store each non-loop edge in both directions, then sort-and-merge per row.
  std::vector<int64_t> counts(static_cast<size_t>(num_nodes) + 1, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    counts[e.u + 1]++;
    counts[e.v + 1]++;
  }
  for (int i = 0; i < num_nodes; ++i) counts[i + 1] += counts[i];

  std::vector<std::pair<int, double>> slots(counts[num_nodes]);
  {
    std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
    for (const Edge& e : edges) {
      if (e.u == e.v) continue;
      slots[cursor[e.u]++] = {e.v, e.weight};
      slots[cursor[e.v]++] = {e.u, e.weight};
    }
  }

  CsrGraph g;
  g.num_nodes_ = num_nodes;
  g.offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  g.neighbors_.reserve(slots.size());
  g.weights_.reserve(slots.size());
  for (int v = 0; v < num_nodes; ++v) {
    auto begin = slots.begin() + counts[v];
    auto end = slots.begin() + counts[v + 1];
    std::sort(begin, end,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto it = begin; it != end;) {
      int nbr = it->first;
      double w = 0.0;
      while (it != end && it->first == nbr) {
        w += it->second;
        ++it;
      }
      g.neighbors_.push_back(nbr);
      g.weights_.push_back(w);
    }
    g.offsets_[v + 1] = static_cast<int64_t>(g.neighbors_.size());
  }
  RP_DCHECK_OK(g.Validate());
  return g;
}

CsrGraph CsrGraph::FromRawParts(int num_nodes, std::vector<int64_t> offsets,
                                std::vector<int> neighbors,
                                std::vector<double> weights) {
  CsrGraph g;
  g.num_nodes_ = num_nodes;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.weights_ = std::move(weights);
  RP_DCHECK_OK(g.Validate());
  return g;
}

Result<CsrGraph> CsrGraph::FromUntrustedParts(int num_nodes,
                                              std::vector<int64_t> offsets,
                                              std::vector<int> neighbors,
                                              std::vector<double> weights) {
  CsrGraph g;
  g.num_nodes_ = num_nodes;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.weights_ = std::move(weights);
  RP_RETURN_IF_ERROR(g.Validate());
  return g;
}

Status CsrGraph::Validate() const {
  if (num_nodes_ < 0) return Status::Internal("negative node count");
  // A default-constructed graph keeps all arrays empty; that is valid.
  if (num_nodes_ == 0 && offsets_.empty() && neighbors_.empty() &&
      weights_.empty()) {
    return Status::OK();
  }
  if (offsets_.size() != static_cast<size_t>(num_nodes_) + 1) {
    return Status::Internal(
        StrPrintf("offset array has %zu entries for %d nodes",
                  offsets_.size(), num_nodes_));
  }
  if (offsets_.front() != 0) return Status::Internal("offsets[0] != 0");
  if (offsets_.back() != static_cast<int64_t>(neighbors_.size())) {
    return Status::Internal("offsets back does not cover neighbor array");
  }
  if (weights_.size() != neighbors_.size()) {
    return Status::Internal("weights/neighbors size mismatch");
  }
  // Monotonicity must be established for the whole array before any row is
  // dereferenced — with front == 0 and back == size it bounds every row span,
  // so the loop below cannot read outside the neighbor arrays.
  for (int v = 0; v < num_nodes_; ++v) {
    if (offsets_[v] > offsets_[v + 1]) {
      return Status::Internal(StrPrintf("offsets not monotone at node %d", v));
    }
  }
  // Symmetry: the dual graph is undirected, so every stored arc must have its
  // reverse with an identical weight. Rows are visited in ascending order,
  // so row u meets its lower neighbours in the order it stores them: a
  // cursor per row (matched[u], the lower arcs of u matched so far) walks
  // that prefix, and each arc v -> u with u > v must find v under u's
  // cursor. A lower arc the cursor never passed has no reverse, whatever its
  // weight. A row holds fewer than num_nodes_ arcs, so an int counts them.
  std::vector<int> matched(num_nodes_, 0);
  for (int v = 0; v < num_nodes_; ++v) {
    for (int64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const int u = neighbors_[i];
      if (u < 0 || u >= num_nodes_) {
        return Status::Internal(
            StrPrintf("neighbor %d of node %d out of range", u, v));
      }
      if (u == v) {
        return Status::Internal(StrPrintf("self-loop at node %d", v));
      }
      if (i > offsets_[v] && neighbors_[i - 1] >= u) {
        return Status::Internal(
            StrPrintf("neighbors of node %d not strictly sorted", v));
      }
      if (!std::isfinite(weights_[i])) {
        return Status::Internal(
            StrPrintf("non-finite weight on edge (%d,%d)", v, u));
      }
      bool symmetric;
      if (u < v) {
        symmetric = i - offsets_[v] < matched[v];
      } else {
        const int64_t r = offsets_[u] + matched[u]++;
        symmetric = r < offsets_[u + 1] && neighbors_[r] == v &&
                    weights_[r] == weights_[i];
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

double CsrGraph::EdgeWeight(int u, int v) const {
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  return weights_[offsets_[u] + (it - nbrs.begin())];
}

double CsrGraph::TotalWeight() const {
  double acc = 0.0;
  for (double w : weights_) acc += w;
  return acc / 2.0;
}

SparseMatrix CsrGraph::ToSparseMatrix() const {
  std::vector<Triplet> entries;
  entries.reserve(neighbors_.size());
  for (int v = 0; v < num_nodes_; ++v) {
    for (int64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      entries.push_back({v, neighbors_[i], weights_[i]});
    }
  }
  auto result = SparseMatrix::FromTriplets(num_nodes_, num_nodes_, entries);
  RP_CHECK(result.ok());
  return std::move(result).value();
}

CsrGraph CsrGraph::InducedSubgraph(const std::vector<int>& nodes) const {
  std::unordered_map<int, int> local;
  local.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    RP_CHECK(nodes[i] >= 0 && nodes[i] < num_nodes_);
    local[nodes[i]] = static_cast<int>(i);
  }
  std::vector<Edge> edges;
  for (size_t i = 0; i < nodes.size(); ++i) {
    int v = nodes[i];
    auto nbrs = Neighbors(v);
    auto wts = NeighborWeights(v);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j] <= v) continue;  // each undirected edge once
      auto it = local.find(nbrs[j]);
      if (it != local.end()) {
        edges.push_back({static_cast<int>(i), it->second, wts[j]});
      }
    }
  }
  auto result = FromEdges(static_cast<int>(nodes.size()), edges);
  RP_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace roadpart
