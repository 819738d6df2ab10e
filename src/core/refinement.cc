#include "core/refinement.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/string_util.h"

namespace roadpart {

Result<std::vector<int>> RefineBoundary(const CsrGraph& graph,
                                        std::vector<int> assignment,
                                        const SpectralCutMethod& method,
                                        const RefinementOptions& options,
                                        int* moves_applied) {
  const int n = graph.num_nodes();
  if (static_cast<int>(assignment.size()) != n) {
    return Status::InvalidArgument(
        StrPrintf("assignment has %zu entries for %d nodes", assignment.size(),
                  n));
  }
  int k = DensifyAssignment(assignment);
  PartitionSums sums = SumPartitions(graph, assignment, k);

  int applied = 0;
  for (int round = 0; round < options.max_rounds; ++round) {
    bool moved = false;
    for (int v = 0; v < n; ++v) {
      int p = assignment[v];
      if (sums.size[p] <= 1) continue;  // never empty a partition

      // Weight of v's edges into each adjacent partition.
      auto nbrs = graph.Neighbors(v);
      auto wts = graph.NeighborWeights(v);
      double degree_v = 0.0;
      std::map<int, double> link_to;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        degree_v += wts[i];
        link_to[assignment[nbrs[i]]] += wts[i];
      }
      double to_own = link_to.count(p) ? link_to[p] : 0.0;

      double base = method.PartitionTerm(sums.volume[p], sums.internal[p],
                                         sums.size[p], sums.total);
      double best_delta = -1e-12;  // strict improvement only
      int best_q = -1;
      for (const auto& [q, w_q] : link_to) {
        if (q == p) continue;
        double term_p_without =
            method.PartitionTerm(sums.volume[p] - degree_v,
                                 sums.internal[p] - 2.0 * to_own,
                                 sums.size[p] - 1, sums.total);
        double term_q_before = method.PartitionTerm(
            sums.volume[q], sums.internal[q], sums.size[q], sums.total);
        double term_q_with =
            method.PartitionTerm(sums.volume[q] + degree_v,
                                 sums.internal[q] + 2.0 * w_q,
                                 sums.size[q] + 1, sums.total);
        double delta =
            (term_p_without + term_q_with) - (base + term_q_before);
        if (delta < best_delta) {
          best_delta = delta;
          best_q = q;
        }
      }
      if (best_q >= 0) {
        double w_q = link_to[best_q];
        sums.volume[p] -= degree_v;
        sums.internal[p] -= 2.0 * to_own;
        sums.size[p] -= 1;
        sums.volume[best_q] += degree_v;
        sums.internal[best_q] += 2.0 * w_q;
        sums.size[best_q] += 1;
        assignment[v] = best_q;
        ++applied;
        moved = true;
      }
    }
    if (!moved) break;
  }

  if (options.enforce_connectivity) {
    EnforcePartitionConnectivity(graph, assignment);
  } else {
    DensifyAssignment(assignment);
  }
  if (moves_applied != nullptr) *moves_applied = applied;
  return assignment;
}

}  // namespace roadpart
