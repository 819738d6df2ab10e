#include "core/spectral_common.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "graph/connected_components.h"
#include "graph/graph_algos.h"
#include "linalg/symmetric_eigen.h"

namespace roadpart {

const char* NonConvergencePolicyName(NonConvergencePolicy policy) {
  switch (policy) {
    case NonConvergencePolicy::kFail:
      return "fail";
    case NonConvergencePolicy::kRetry:
      return "retry";
    case NonConvergencePolicy::kFallbackDense:
      return "dense";
    case NonConvergencePolicy::kBestEffort:
      return "best-effort";
  }
  return "?";
}

const char* SolverPathName(SolverPath path) {
  switch (path) {
    case SolverPath::kNone:
      return "none";
    case SolverPath::kDense:
      return "dense";
    case SolverPath::kLanczosFirstTry:
      return "lanczos";
    case SolverPath::kLanczosRetry:
      return "lanczos-retry";
    case SolverPath::kDenseFallback:
      return "dense-fallback";
    case SolverPath::kBestEffort:
      return "best-effort";
  }
  return "?";
}

void EigenSolveDiagnostics::Merge(const EigenSolveDiagnostics& other) {
  solver_path = std::max(solver_path, other.solver_path);
  solves += other.solves;
  lanczos_restarts += other.lanczos_restarts;
  worst_ritz_residual = std::max(worst_ritz_residual,
                                 other.worst_ritz_residual);
  all_converged = all_converged && other.all_converged;
}

namespace {

// Copies the k columns at the requested spectrum end out of a full dense
// decomposition.
DenseMatrix SelectExtremeColumns(const EigenResult& eig, int n, int k,
                                 SpectrumEnd end) {
  DenseMatrix out(n, k);
  for (int c = 0; c < k; ++c) {
    int col = (end == SpectrumEnd::kSmallest) ? c : n - k + c;
    for (int r = 0; r < n; ++r) out(r, c) = eig.eigenvectors(r, col);
  }
  return out;
}

// One-solve diagnostics record.
EigenSolveDiagnostics SolveRecord(SolverPath path, int restarts,
                                  double residual, bool converged) {
  EigenSolveDiagnostics d;
  d.solver_path = path;
  d.solves = 1;
  d.lanczos_restarts = restarts;
  d.worst_ritz_residual = residual;
  d.all_converged = converged;
  return d;
}

}  // namespace

Result<DenseMatrix> ExtremeEigenvectors(const LinearOperator& op, int k,
                                        SpectrumEnd end,
                                        const SpectralOptions& options,
                                        EigenSolveDiagnostics* diagnostics) {
  const int n = op.Dim();
  if (k <= 0 || k > n) {
    return Status::InvalidArgument(
        StrPrintf("need 1 <= k <= %d, got %d", n, k));
  }
  auto record = [&](const EigenSolveDiagnostics& d) {
    if (diagnostics != nullptr) *diagnostics = d;
  };
  if (n <= options.dense_threshold) {
    DenseMatrix dense = Materialize(op);
    RP_ASSIGN_OR_RETURN(EigenResult eig, SymmetricEigenDecompose(dense));
    record(SolveRecord(SolverPath::kDense, 0, eig.max_residual, true));
    return SelectExtremeColumns(eig, n, k, end);
  }

  // Rung 1: Lanczos as configured.
  const LanczosOptions& lanczos = options.lanczos;
  LanczosSolver solver(op, k, end, lanczos);
  RP_RETURN_IF_ERROR(solver.Run(lanczos.max_subspace, lanczos.max_restarts));
  if (solver.converged()) {
    RP_ASSIGN_OR_RETURN(EigenResult eig, solver.Eigenpairs());
    record(SolveRecord(SolverPath::kLanczosFirstTry, eig.restarts_used,
                       eig.max_residual, true));
    return std::move(eig.eigenvectors);
  }
  const NonConvergencePolicy policy = options.on_nonconvergence;
  if (policy == NonConvergencePolicy::kFail) {
    record(SolveRecord(SolverPath::kLanczosFirstTry, solver.restarts_used(),
                       solver.max_residual(), false));
    return Status::NotConverged(StrPrintf(
        "Lanczos did not converge (n=%d, k=%d, max Ritz residual %.3e, "
        "%d restarts); policy=fail",
        n, k, solver.max_residual(), solver.restarts_used()));
  }

  // Rung 2: resume the same solver past the configured budget, to twice it
  // (at least 100 rows more), with one extra checkpoint. Rung 1's rows (of
  // the plain or the Chebyshev-filtered factorization, whichever it stopped
  // in) are kept, so this rung costs only the rows it adds.
  const int budget = std::min(n, std::max(2 * lanczos.max_subspace,
                                          lanczos.max_subspace + 100));
  RP_RETURN_IF_ERROR(solver.Run(budget, lanczos.max_restarts + 1));
  const int restarts = solver.restarts_used();
  if (solver.converged()) {
    RP_ASSIGN_OR_RETURN(EigenResult eig, solver.Eigenpairs());
    record(SolveRecord(SolverPath::kLanczosRetry, restarts, eig.max_residual,
                       true));
    return std::move(eig.eigenvectors);
  }
  const double residual = solver.max_residual();
  if (policy == NonConvergencePolicy::kRetry) {
    record(SolveRecord(SolverPath::kLanczosRetry, restarts, residual, false));
    return Status::NotConverged(StrPrintf(
        "Lanczos did not converge after resuming to %d rows (n=%d, k=%d, "
        "best max Ritz residual %.3e, %d restarts); policy=retry",
        budget, n, k, residual, restarts));
  }

  // Rung 3: exact dense decomposition, when the order permits materializing
  // the operator.
  if (n <= options.dense_fallback_max) {
    RP_LOG(Warning) << "Lanczos failed to converge (residual " << residual
                    << "); falling back to dense solve of order " << n;
    DenseMatrix dense = Materialize(op);
    RP_ASSIGN_OR_RETURN(EigenResult full, SymmetricEigenDecompose(dense));
    record(SolveRecord(SolverPath::kDenseFallback, restarts,
                       full.max_residual, true));
    return SelectExtremeColumns(full, n, k, end);
  }
  if (policy == NonConvergencePolicy::kBestEffort) {
    RP_LOG(Warning) << "Lanczos failed to converge (residual " << residual
                    << ", n=" << n << " too large for dense fallback); "
                    << "accepting best-effort estimate";
    RP_ASSIGN_OR_RETURN(EigenResult best, solver.Eigenpairs());
    record(SolveRecord(SolverPath::kBestEffort, restarts, residual, false));
    return std::move(best.eigenvectors);
  }
  record(SolveRecord(SolverPath::kLanczosRetry, restarts, residual, false));
  return Status::NotConverged(StrPrintf(
      "Lanczos did not converge and n=%d exceeds dense_fallback_max=%d "
      "(best max Ritz residual %.3e, %d restarts); policy=dense",
      n, options.dense_fallback_max, residual, restarts));
}

Result<DenseMatrix> RowNormalize(const DenseMatrix& y) {
  // Pre-scan: a NaN/Inf row must surface as a structured error in every
  // build type, not poison k-means (Release) or abort (Debug). Deterministic
  // blocked min-reduction finds the first offending row.
  const int64_t bad_row = ParallelBlockedReduce<int64_t>(
      y.rows(), /*grain=*/256, std::numeric_limits<int64_t>::max(),
      [&](int64_t begin, int64_t end) {
        for (int64_t r = begin; r < end; ++r) {
          for (int c = 0; c < y.cols(); ++c) {
            if (!std::isfinite(y(static_cast<int>(r), c))) return r;
          }
        }
        return std::numeric_limits<int64_t>::max();
      },
      [](int64_t a, int64_t b) { return std::min(a, b); });
  if (bad_row != std::numeric_limits<int64_t>::max()) {
    return Status::Internal(StrPrintf(
        "embedding row %lld contains a non-finite value",
        static_cast<long long>(bad_row)));
  }
  DenseMatrix z = y;
  // Row-blocked: each row normalizes independently with a serial norm, so
  // the output is bit-identical for any thread count.
  ParallelForBlocked(z.rows(), /*grain=*/128, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      int row = static_cast<int>(r);
      double norm = 0.0;
      for (int c = 0; c < z.cols(); ++c) norm += z(row, c) * z(row, c);
      norm = std::sqrt(norm);
      if (norm > 0.0) {
        for (int c = 0; c < z.cols(); ++c) z(row, c) /= norm;
      }
    }
  });
  return z;
}

CsrGraph GaussianWeightedGraph(const CsrGraph& adjacency,
                               const std::vector<double>& features,
                               bool degree_normalize) {
  RP_CHECK(static_cast<int>(features.size()) == adjacency.num_nodes());
  // Scale by the typical adjacent-pair density difference, not the global
  // variance: road densities vary smoothly along a road, so the global
  // spread is far larger than any single-hop difference and would push every
  // edge weight to ~1 (the cut would then follow topology only). With the
  // local scale, a typical edge weighs e^{-1/2} and a cross-plateau edge is
  // exponentially suppressed — which is what "congestion similarity"
  // affinity (Definition 3) needs to steer the cut.
  // Deterministic blocked reduction over nodes: per-block (sum, count)
  // partials are combined in ascending block order, so sigma^2 — and with it
  // every downstream edge weight — is independent of the thread count.
  struct PairAcc {
    double sum = 0.0;
    int64_t count = 0;
  };
  PairAcc tot = ParallelBlockedReduce<PairAcc>(
      adjacency.num_nodes(), /*grain=*/1024, PairAcc{},
      [&](int64_t begin, int64_t end) {
        PairAcc local;
        for (int64_t u = begin; u < end; ++u) {
          for (int v : adjacency.Neighbors(static_cast<int>(u))) {
            if (u < v) {
              double diff = features[u] - features[v];
              local.sum += diff * diff;
              ++local.count;
            }
          }
        }
        return local;
      },
      [](PairAcc a, PairAcc b) {
        a.sum += b.sum;
        a.count += b.count;
        return a;
      });
  double sigma_sq =
      tot.count > 0 ? tot.sum / static_cast<double>(tot.count) : 0.0;
  CsrGraph weighted = ReweightGraph(adjacency, [&](int u, int v, double) {
    if (sigma_sq <= 0.0) return 1.0;
    double diff = features[u] - features[v];
    return std::exp(-(diff * diff) / (2.0 * sigma_sq));
  });
  if (!degree_normalize) return weighted;
  const std::vector<double> degree = weighted.ToSparseMatrix().RowSums();
  return ReweightGraph(weighted, [&](int u, int v, double w) {
    double d = degree[u] * degree[v];
    if (d <= 0.0) return 0.0;
    return w / std::sqrt(d);
  });
}

PartitionSums SumPartitions(const CsrGraph& graph,
                            const std::vector<int>& assignment, int k) {
  RP_CHECK_EQ(static_cast<int>(assignment.size()), graph.num_nodes());
  // A label outside [0, k) would index out of bounds below; unused labels
  // are tolerated because every PartitionTerm of an empty partition is 0.
  RP_DCHECK_OK(ValidatePartitionLabels(assignment, graph.num_nodes(), k,
                                       /*require_all_labels_used=*/false));
  PartitionSums sums;
  sums.volume.assign(k, 0.0);
  sums.internal.assign(k, 0.0);
  sums.size.assign(k, 0);
  for (int u = 0; u < graph.num_nodes(); ++u) {
    const int p = assignment[u];
    sums.size[p]++;
    auto nbrs = graph.Neighbors(u);
    auto wts = graph.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      sums.volume[p] += wts[i];
      sums.total += wts[i];
      if (assignment[nbrs[i]] == p) sums.internal[p] += wts[i];
    }
  }
  return sums;
}

double SpectralCutMethod::Objective(const CsrGraph& graph,
                                    const std::vector<int>& assignment) const {
  int k = 0;
  for (int a : assignment) k = std::max(k, a + 1);
  const PartitionSums sums = SumPartitions(graph, assignment, k);
  double value = 0.0;
  for (int p = 0; p < k; ++p) {
    value += PartitionTerm(sums.volume[p], sums.internal[p], sums.size[p],
                           sums.total);
  }
  return value;
}

Result<CsrGraph> PartitionConnectivityGraph(const CsrGraph& graph,
                                            const std::vector<int>& assignment,
                                            int num_partitions) {
  std::map<std::pair<int, int>, std::pair<double, int>> cross;  // sum(w^2), count
  for (int u = 0; u < graph.num_nodes(); ++u) {
    auto nbrs = graph.Neighbors(u);
    auto wts = graph.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      int v = nbrs[i];
      if (u >= v) continue;
      int p = assignment[u];
      int q = assignment[v];
      if (p == q) continue;
      if (p > q) std::swap(p, q);
      auto& entry = cross[{p, q}];
      entry.first += wts[i] * wts[i];
      entry.second += 1;
    }
  }
  std::vector<Edge> edges;
  edges.reserve(cross.size());
  for (const auto& [pq, acc] : cross) {
    edges.push_back(
        {pq.first, pq.second, std::sqrt(acc.first / acc.second)});
  }
  return CsrGraph::FromEdges(num_partitions, edges);
}

namespace {

// Bipartitions a (small, condensed) weighted graph with the method's own
// 2-way embedding. Guarantees both sides are non-empty for graphs with >= 2
// nodes, falling back to a median split of the Fiedler-like column.
Result<std::vector<int>> BipartitionGraph(const CsrGraph& graph,
                                          const SpectralCutMethod& method,
                                          const KMeansOptions& kmeans_options) {
  const int n = graph.num_nodes();
  RP_CHECK(n >= 2);
  RP_ASSIGN_OR_RETURN(DenseMatrix z, method.Embed(graph, std::min(2, n)));
  RP_ASSIGN_OR_RETURN(KMeansResult km, KMeansRows(z, 2, kmeans_options));

  int count1 = 0;
  for (int a : km.assignment) count1 += a;
  if (count1 != 0 && count1 != n) return km.assignment;

  // Degenerate clustering: split at the median of the most informative
  // column (the last one — eigenvalue order puts the constant-ish vector
  // first for Laplacian-style embeddings).
  std::vector<int> labels(n, 0);
  int col = z.cols() - 1;
  std::vector<std::pair<double, int>> vals(n);
  for (int i = 0; i < n; ++i) vals[i] = {z(i, col), i};
  std::sort(vals.begin(), vals.end());
  for (int i = n / 2; i < n; ++i) labels[vals[i].second] = 1;
  return labels;
}

}  // namespace

Status ValidatePartitionLabels(const std::vector<int>& assignment,
                               int num_nodes, int num_partitions,
                               bool require_all_labels_used) {
  if (static_cast<int>(assignment.size()) != num_nodes) {
    return Status::Internal(
        StrPrintf("assignment has %zu labels for %d nodes", assignment.size(),
                  num_nodes));
  }
  std::vector<char> used(std::max(num_partitions, 0), 0);
  for (int i = 0; i < num_nodes; ++i) {
    int p = assignment[i];
    if (p < 0 || p >= num_partitions) {
      return Status::Internal(StrPrintf(
          "node %d carries label %d outside [0,%d)", i, p, num_partitions));
    }
    used[p] = 1;
  }
  if (require_all_labels_used) {
    for (int p = 0; p < num_partitions; ++p) {
      if (!used[p]) {
        return Status::Internal(StrPrintf("partition %d is empty", p));
      }
    }
  }
  return Status::OK();
}

int DensifyAssignment(std::vector<int>& assignment) {
  std::map<int, int> remap;
  for (int& a : assignment) {
    auto [it, inserted] = remap.try_emplace(a, static_cast<int>(remap.size()));
    a = it->second;
  }
  return static_cast<int>(remap.size());
}

void EnforcePartitionConnectivity(const CsrGraph& graph,
                                  std::vector<int>& assignment) {
  for (int pass = 0; pass < 8; ++pass) {
    int k = DensifyAssignment(assignment);
    std::vector<std::vector<int>> groups = GroupByAssignment(assignment, k);
    bool changed = false;
    for (int p = 0; p < k; ++p) {
      auto comps = ComponentsOfSubset(graph, groups[p]);
      if (comps.size() <= 1) continue;
      // Keep the largest component; merge the rest into the neighbouring
      // partition with the strongest total edge weight.
      size_t largest = 0;
      for (size_t c = 1; c < comps.size(); ++c) {
        if (comps[c].size() > comps[largest].size()) largest = c;
      }
      for (size_t c = 0; c < comps.size(); ++c) {
        if (c == largest) continue;
        std::map<int, double> pull;
        for (int u : comps[c]) {
          auto nbrs = graph.Neighbors(u);
          auto wts = graph.NeighborWeights(u);
          for (size_t i = 0; i < nbrs.size(); ++i) {
            if (assignment[nbrs[i]] != p) {
              pull[assignment[nbrs[i]]] += wts[i];
            }
          }
        }
        if (pull.empty()) continue;  // isolated in the whole graph
        int target = pull.begin()->first;
        double best = pull.begin()->second;
        for (const auto& [cand, w] : pull) {
          if (w > best) {
            best = w;
            target = cand;
          }
        }
        for (int u : comps[c]) assignment[u] = target;
        changed = true;
      }
    }
    if (!changed) break;
  }
  DensifyAssignment(assignment);
}

Result<GraphCutResult> SpectralKWayPartition(
    const CsrGraph& graph, int k, const SpectralCutMethod& method,
    const SpectralPipelineOptions& options) {
  const int n = graph.num_nodes();
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (k > n) {
    return Status::InvalidArgument(
        StrPrintf("k=%d exceeds graph order %d", k, n));
  }

  // Solver-ladder diagnostics accumulate on the method across the top-level
  // embedding and every bipartition sub-solve of this pipeline run.
  method.ResetEigenDiagnostics();

  GraphCutResult result;
  if (k == 1) {
    result.assignment.assign(n, 0);
    result.k_final = 1;
    result.k_prime = 1;
    result.objective = method.Objective(graph, result.assignment);
    return result;
  }

  // Lines 4-10 of Algorithm 3: embedding + k-means over rows.
  RP_ASSIGN_OR_RETURN(DenseMatrix z, method.Embed(graph, k));
  if (options.embedding_sink != nullptr) *options.embedding_sink = z;
  RP_ASSIGN_OR_RETURN(KMeansResult km, KMeansRows(z, k, options.kmeans));

  // Line 11: split clusters into connected components -> k' partitions.
  std::vector<int> partition(n, -1);
  int k_prime = 0;
  std::vector<std::vector<int>> clusters = GroupByAssignment(km.assignment, k);
  for (const auto& cluster : clusters) {
    if (cluster.empty()) continue;
    for (const auto& comp : ComponentsOfSubset(graph, cluster)) {
      for (int v : comp) partition[v] = k_prime;
      ++k_prime;
    }
  }
  result.k_prime = k_prime;

  // Lines 12-24: global recursive bipartitioning of the condensed graph
  // until exactly k partitions remain (or greedy pruning when selected).
  if (options.enforce_exact_k && k_prime > k &&
      options.exact_k_method == ExactKMethod::kGreedyMerge) {
    // Greedy pruning (Section 5.4 alternative): repeatedly merge the pair of
    // adjacent partitions whose merge lowers the cut objective the most
    // (equivalently, raises it the least). Per-partition sums make each
    // candidate evaluation O(1).
    PartitionSums sums = SumPartitions(graph, partition, k_prime);
    std::vector<double>& volume = sums.volume;
    std::vector<double>& internal = sums.internal;
    std::vector<int>& size = sums.size;
    const double total = sums.total;
    // Ordered-pair cross weights between partitions.
    std::map<std::pair<int, int>, double> cross;
    for (int u = 0; u < n; ++u) {
      auto nbrs = graph.Neighbors(u);
      auto wts = graph.NeighborWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        int p = partition[u];
        int q = partition[nbrs[i]];
        if (p < q) cross[{p, q}] += wts[i];  // counts each edge once (u<v or v<u covered twice; p<q once per direction)
      }
    }
    std::vector<char> alive(k_prime, 1);
    int remaining = k_prime;
    while (remaining > k) {
      double best_delta = 0.0;
      bool found = false;
      std::pair<int, int> best_pair{-1, -1};
      for (const auto& [pq, w] : cross) {
        auto [p, q] = pq;
        if (!alive[p] || !alive[q] || w <= 0.0) continue;
        double merged_term = method.PartitionTerm(
            volume[p] + volume[q], internal[p] + internal[q] + 2.0 * w,
            size[p] + size[q], total);
        double delta = merged_term -
                       method.PartitionTerm(volume[p], internal[p], size[p],
                                            total) -
                       method.PartitionTerm(volume[q], internal[q], size[q],
                                            total);
        if (!found || delta < best_delta) {
          best_delta = delta;
          best_pair = pq;
          found = true;
        }
      }
      if (!found) break;  // no adjacent pairs left
      auto [p, q] = best_pair;
      // Merge q into p.
      volume[p] += volume[q];
      internal[p] += internal[q] + 2.0 * cross[best_pair];
      size[p] += size[q];
      alive[q] = 0;
      // Redirect q's cross weights to p.
      std::map<std::pair<int, int>, double> updates;
      for (auto it = cross.begin(); it != cross.end();) {
        auto [a, b] = it->first;
        if (a == q || b == q) {
          int other = (a == q) ? b : a;
          if (other != p && alive[other]) {
            auto key = std::minmax(p, other);
            updates[{key.first, key.second}] += it->second;
          }
          it = cross.erase(it);
        } else {
          ++it;
        }
      }
      for (const auto& [key, w] : updates) cross[key] += w;
      for (int v = 0; v < n; ++v) {
        if (partition[v] == q) partition[v] = p;
      }
      --remaining;
    }
  } else if (options.enforce_exact_k && k_prime > k) {
    RP_ASSIGN_OR_RETURN(CsrGraph condensed,
                        PartitionConnectivityGraph(graph, partition, k_prime));
    // Work over groups of condensed-node ids, FIFO as in the paper.
    std::deque<std::vector<int>> fifo;
    std::vector<std::vector<int>> groups;
    {
      std::vector<int> all(k_prime);
      for (int i = 0; i < k_prime; ++i) all[i] = i;
      fifo.push_back(all);
      groups.push_back(std::move(all));
    }
    auto find_group = [&](const std::vector<int>& g) -> size_t {
      for (size_t i = 0; i < groups.size(); ++i) {
        if (groups[i] == g) return i;
      }
      RP_CHECK(false);
      return 0;
    };
    while (static_cast<int>(groups.size()) < k && !fifo.empty()) {
      std::vector<int> cur = std::move(fifo.front());
      fifo.pop_front();
      if (cur.size() < 2) continue;  // unsplittable; stays as-is in `groups`
      CsrGraph sub = condensed.InducedSubgraph(cur);
      RP_ASSIGN_OR_RETURN(std::vector<int> side,
                          BipartitionGraph(sub, method, options.kmeans));
      std::vector<int> part_a;
      std::vector<int> part_b;
      for (size_t i = 0; i < cur.size(); ++i) {
        (side[i] == 0 ? part_a : part_b).push_back(cur[i]);
      }
      size_t slot = find_group(cur);
      groups[slot] = part_a;
      groups.push_back(part_b);
      fifo.push_back(std::move(part_a));
      fifo.push_back(std::move(part_b));
    }
    // Map condensed ids -> final group ids -> node assignment.
    std::vector<int> condensed_group(k_prime, -1);
    for (size_t gid = 0; gid < groups.size(); ++gid) {
      for (int cid : groups[gid]) condensed_group[cid] = static_cast<int>(gid);
    }
    for (int v = 0; v < n; ++v) {
      partition[v] = condensed_group[partition[v]];
    }
  }

  if (options.enforce_connectivity) {
    EnforcePartitionConnectivity(graph, partition);
  } else {
    DensifyAssignment(partition);
  }

  result.assignment = std::move(partition);
  result.k_final = DensifyAssignment(result.assignment);
  RP_DCHECK_OK(ValidatePartitionLabels(result.assignment, n, result.k_final));
  result.objective = method.Objective(graph, result.assignment);
  result.eigen = method.eigen_diagnostics();
  return result;
}

}  // namespace roadpart
