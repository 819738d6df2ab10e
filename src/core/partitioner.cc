#include "core/partitioner.h"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/spectral_common.h"
#include "serve/snapshot.h"

namespace roadpart {

std::string RunDiagnostics::ToString() const {
  std::string out = StrPrintf(
      "solver path: %s (%d solves, %d restarts, worst Ritz residual %.3e, "
      "%s)\n",
      SolverPathName(eigen.solver_path), eigen.solves, eigen.lanczos_restarts,
      eigen.worst_ritz_residual,
      eigen.all_converged ? "converged" : "best-effort");
  out += StrPrintf(
      "densities repaired: %d (nan %d, inf %d, negative %d, padded %d, "
      "truncated %d)\n",
      density_repairs.total_repaired(), density_repairs.nan_replaced,
      density_repairs.inf_clamped, density_repairs.negative_clamped,
      density_repairs.padded, density_repairs.truncated);
  if (deadline_seconds > 0.0) {
    out += StrPrintf("deadline: %.3fs (slack after modules:", deadline_seconds);
    const double slack[3] = {slack_module1_seconds, slack_module2_seconds,
                             slack_module3_seconds};
    for (int m = 0; m < 3; ++m) {
      out += slack[m] < 0.0 ? StrPrintf(" m%d=-", m + 1)
                            : StrPrintf(" m%d=%.3fs", m + 1, slack[m]);
    }
    out += ")\n";
  }
  for (const std::string& w : warnings) {
    out += "warning: " + w + "\n";
  }
  return out;
}

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kAG:
      return "AG";
    case Scheme::kASG:
      return "ASG";
    case Scheme::kNG:
      return "NG";
    case Scheme::kNSG:
      return "NSG";
    case Scheme::kJiGeroliminis:
      return "JiGeroliminis";
  }
  return "?";
}

std::string CanonicalOptionsString(const PartitionerOptions& o) {
  std::ostringstream s;
  auto bits = [](double v) { return DoubleToBitsHex(v); };
  s << "scheme=" << SchemeName(o.scheme) << ";k=" << o.k;
  s << ";miner.max_kappa=" << o.miner.max_kappa
    << ";miner.mcg_abs=" << bits(o.miner.mcg_threshold_absolute)
    << ";miner.mcg_frac=" << bits(o.miner.mcg_threshold_fraction)
    << ";miner.sample_size=" << o.miner.sample_size
    << ";miner.min_supernodes=" << o.miner.min_supernodes
    << ";miner.stability.threshold=" << bits(o.miner.stability.threshold)
    << ";miner.stability.split=" << o.miner.stability.split_into_components
    << ";miner.weight_scheme=" << static_cast<int>(o.miner.weight_scheme)
    << ";miner.seed=" << o.miner.seed;
  s << ";spectral.dense_threshold=" << o.spectral.dense_threshold
    << ";spectral.lanczos.max_subspace=" << o.spectral.lanczos.max_subspace
    << ";spectral.lanczos.tolerance=" << bits(o.spectral.lanczos.tolerance)
    << ";spectral.lanczos.seed=" << o.spectral.lanczos.seed
    << ";spectral.lanczos.max_restarts=" << o.spectral.lanczos.max_restarts
    << ";spectral.on_nonconvergence="
    << static_cast<int>(o.spectral.on_nonconvergence)
    << ";spectral.dense_fallback_max=" << o.spectral.dense_fallback_max;
  s << ";kmeans.max_iterations=" << o.kmeans.max_iterations
    << ";kmeans.restarts=" << o.kmeans.restarts
    << ";kmeans.kmeanspp=" << o.kmeans.use_kmeanspp
    << ";kmeans.seed=" << o.kmeans.seed;
  s << ";ji.over_partition=" << bits(o.ji.over_partition_factor)
    << ";ji.boundary_rounds=" << o.ji.boundary_rounds
    << ";ji.ncut.exact_k=" << o.ji.ncut.pipeline.enforce_exact_k
    << ";ji.ncut.exact_k_method="
    << static_cast<int>(o.ji.ncut.pipeline.exact_k_method)
    << ";ji.ncut.connectivity=" << o.ji.ncut.pipeline.enforce_connectivity;
  s << ";exact_k=" << o.enforce_exact_k
    << ";exact_k_method=" << static_cast<int>(o.exact_k_method)
    << ";connectivity=" << o.enforce_connectivity
    << ";refine=" << o.refine_boundary
    << ";refinement.max_rounds=" << o.refinement.max_rounds
    << ";refinement.connectivity=" << o.refinement.enforce_connectivity
    << ";seed=" << o.seed
    << ";density_policy=" << static_cast<int>(o.density_policy);
  return s.str();
}

Result<PartitionOutcome> Partitioner::PartitionNetwork(
    const RoadNetwork& network) const {
  ScopedParallelism threads(options_.num_threads);
  Timer timer;
  RoadGraph graph = RoadGraph::FromNetwork(network);
  double module1 = timer.Seconds();
  RP_ASSIGN_OR_RETURN(PartitionOutcome outcome,
                      PartitionWithBudget(graph, module1));
  outcome.module1_seconds = module1;
  if (!options_.snapshot_path.empty()) {
    // Serving-snapshot export: downstream of the partition proper, so a
    // failed write fails the run loudly instead of leaving a stale snapshot.
    RP_ASSIGN_OR_RETURN(Snapshot snapshot,
                        Snapshot::Build(network, outcome.assignment));
    RP_RETURN_IF_ERROR(
        snapshot.Save(options_.snapshot_path, options_.checkpoint.retry));
  }
  return outcome;
}

Result<PartitionOutcome> Partitioner::PartitionRoadGraph(
    const RoadGraph& graph) const {
  return PartitionWithBudget(graph, /*consumed_seconds=*/0.0);
}

Result<PartitionOutcome> Partitioner::PartitionWithBudget(
    const RoadGraph& input_graph, double consumed_seconds) const {
  ScopedParallelism threads(options_.num_threads);
  PartitionOutcome outcome;
  const int k = options_.k;
  const double deadline = options_.deadline_seconds;
  outcome.diagnostics.deadline_seconds = deadline;

  // The deadline is enforced at module boundaries, never inside a kernel:
  // kernels stay deterministic and an overrun is detected at the next
  // boundary (so the budget can be exceeded by at most one module).
  Timer budget_timer;
  auto remaining = [&]() {
    return deadline - consumed_seconds - budget_timer.Seconds();
  };
  auto check_deadline = [&](const char* boundary) -> Status {
    if (deadline <= 0.0) return Status::OK();
    double left = remaining();
    if (left < 0.0) {
      return Status::DeadlineExceeded(
          StrPrintf("deadline of %.3fs expired %s (%.3fs over budget)",
                    deadline, boundary, -left));
    }
    return Status::OK();
  };
  if (deadline > 0.0 && consumed_seconds > 0.0) {
    outcome.diagnostics.slack_module1_seconds = deadline - consumed_seconds;
  }
  RP_RETURN_IF_ERROR(check_deadline("after road-graph construction"));

  // Input sanitization: densities enter the pipeline validated or repaired,
  // never raw. A rebuilt graph is only materialized when repairs occurred.
  DensityRepairReport& repairs = outcome.diagnostics.density_repairs;
  RP_ASSIGN_OR_RETURN(
      std::vector<double> densities,
      SanitizeDensities(input_graph.features(), options_.density_policy,
                        input_graph.num_nodes(), &repairs));
  RoadGraph repaired_graph;
  const RoadGraph* active = &input_graph;
  if (repairs.total_repaired() > 0) {
    RP_ASSIGN_OR_RETURN(repaired_graph,
                        RoadGraph::FromParts(input_graph.adjacency(),
                                             std::move(densities)));
    active = &repaired_graph;
  }
  const RoadGraph& graph = *active;

  // One region is the whole graph: no mining, no cut, nothing to
  // checkpoint. Its objective is 0 under every method (no edge is cut).
  if (k == 1) {
    outcome.assignment.assign(graph.num_nodes(), 0);
    outcome.k_final = 1;
    outcome.k_prime = 1;
    outcome.diagnostics.warnings = repairs.warnings;
    return outcome;
  }

  // Checkpoint store, keyed to the *input* graph (pre-sanitization) so the
  // manifest identifies what the caller handed us; a resumed run reruns the
  // (cheap, deterministic) sanitization itself and re-derives its warnings.
  // A store that cannot initialize degrades to a plain uncheckpointed run.
  CheckpointStore store;
  if (!options_.checkpoint.dir.empty()) {
    RunManifest manifest;
    manifest.input_fingerprint = FingerprintRoadGraph(input_graph);
    manifest.options_hash = Fnv1a64(CanonicalOptionsString(options_));
    store = CheckpointStore(options_.checkpoint, manifest);
    Status init = store.Initialize();
    if (!init.ok()) {
      outcome.diagnostics.warnings.push_back("checkpointing disabled: " +
                                             init.ToString());
      store = CheckpointStore();
    }
  }
  // Callers test store.enabled() first, so no payload is encoded for a
  // store that keeps nothing.
  auto save_stage = [&](CheckpointStage stage, const std::string& payload) {
    Status saved = store.SaveStage(stage, payload);
    if (!saved.ok()) {
      outcome.diagnostics.warnings.push_back(
          StrPrintf("checkpoint stage '%s' not saved (%s)",
                    CheckpointStageName(stage), saved.ToString().c_str()));
    }
  };

  SpectralPipelineOptions pipeline;
  pipeline.kmeans = options_.kmeans;
  pipeline.kmeans.seed = options_.seed;
  pipeline.enforce_exact_k = options_.enforce_exact_k;
  pipeline.exact_k_method = options_.exact_k_method;
  pipeline.enforce_connectivity = options_.enforce_connectivity;
  pipeline.embedding_sink = options_.embedding_sink;

  const bool supergraph_scheme =
      options_.scheme == Scheme::kASG || options_.scheme == Scheme::kNSG;

  // A stored 'final' checkpoint short-circuits modules 2-3 entirely; the run
  // still flows through the deadline accounting, warning derivation, and
  // label validation below, exactly like an uninterrupted run.
  bool resumed_final = false;
  if (auto payload = store.LoadStage(CheckpointStage::kFinal)) {
    auto decoded = DecodeFinalCheckpoint(*payload);
    if (decoded.ok() &&
        static_cast<int>(decoded->assignment.size()) == graph.num_nodes()) {
      // This run's own diagnostics (deadline, repairs, store warnings) stay;
      // only the solver record comes from the stored run.
      RunDiagnostics diagnostics = std::move(outcome.diagnostics);
      diagnostics.eigen = decoded->diagnostics.eigen;
      outcome = std::move(*decoded);
      outcome.diagnostics = std::move(diagnostics);
      // The mining report rides in its own stage for the supergraph schemes.
      if (supergraph_scheme) {
        if (auto mining_payload = store.LoadStage(CheckpointStage::kMining)) {
          auto mining = DecodeMiningCheckpoint(*mining_payload);
          if (mining.ok()) outcome.mining_report = std::move(mining->report);
        }
      }
      resumed_final = true;
    } else {
      outcome.diagnostics.warnings.push_back(
          decoded.ok() ? std::string("checkpoint stage 'final' does not "
                                     "match this graph; recomputing")
                       : "checkpoint stage 'final' undecodable (" +
                             decoded.status().ToString() + "); recomputing");
    }
  }

  Timer timer;
  if (!resumed_final) {
    // Module 2, for the supergraph schemes only.
    std::optional<MiningCheckpoint> mined;
    if (supergraph_scheme) {
      timer.Restart();
      if (auto payload = store.LoadStage(CheckpointStage::kMining)) {
        auto decoded = DecodeMiningCheckpoint(*payload);
        if (decoded.ok() &&
            (decoded->roadgraph_fallback ||
             (decoded->supergraph.has_value() &&
              decoded->supergraph->num_road_nodes() == graph.num_nodes()))) {
          mined = std::move(*decoded);
          outcome.mining_report = mined->report;
        } else {
          outcome.diagnostics.warnings.push_back(
              decoded.ok()
                  ? std::string("checkpoint stage 'mining' does not match "
                                "this graph; recomputing")
                  : "checkpoint stage 'mining' undecodable (" +
                        decoded.status().ToString() + "); recomputing");
        }
      }
      if (!mined.has_value()) {
        // The second level needs at least k supernodes to produce k
        // partitions.
        SupergraphMinerOptions miner = options_.miner;
        miner.min_supernodes = std::max(miner.min_supernodes, k);
        RP_ASSIGN_OR_RETURN(
            Supergraph sg,
            MineSupergraph(graph, miner, &outcome.mining_report));
        if (sg.num_supernodes() < k) {
          // Every clustering configuration condensed below k regions (tiny
          // or near-uniform networks): force the stability pass to its
          // strictest setting, which splits supernodes down to
          // uniform-feature groups.
          miner.stability.threshold = 1.0;
          RP_ASSIGN_OR_RETURN(
              sg, MineSupergraph(graph, miner, &outcome.mining_report));
        }
        MiningCheckpoint fresh;
        fresh.roadgraph_fallback = sg.num_supernodes() < k;
        fresh.num_supernodes = sg.num_supernodes();
        fresh.module2_seconds = timer.Seconds();
        fresh.report = outcome.mining_report;
        if (!fresh.roadgraph_fallback) fresh.supergraph = std::move(sg);
        if (store.enabled()) {
          save_stage(CheckpointStage::kMining, EncodeMiningCheckpoint(fresh));
        }
        mined = std::move(fresh);
      }
      outcome.module2_seconds = mined->module2_seconds;
      outcome.num_supernodes = mined->num_supernodes;
      if (deadline > 0.0) {
        outcome.diagnostics.slack_module2_seconds = remaining();
      }
      RP_RETURN_IF_ERROR(check_deadline("after supergraph mining"));
    }

    // Module 3 cuts the mined supergraph's links, or else the
    // Gaussian-weighted road graph: AG/NG/JiGeroliminis, and ASG/NSG when
    // fully uniform densities left nothing for a supergraph to distinguish
    // (a purely topological split, the only meaningful answer there).
    const Supergraph* sg = mined.has_value() && !mined->roadgraph_fallback
                               ? &*mined->supergraph
                               : nullptr;
    CsrGraph weighted;
    if (sg == nullptr) {
      weighted = GaussianWeightedGraph(graph.adjacency(), graph.features());
    }
    const CsrGraph& target = sg != nullptr ? sg->links() : weighted;
    timer.Restart();
    GraphCutResult cut;
    if (options_.scheme == Scheme::kJiGeroliminis) {
      // The baseline is an indivisible three-phase loop with no stable
      // intermediate to persist: only the 'final' stage applies.
      JiGeroliminisOptions ji = options_.ji;
      ji.ncut.spectral = options_.spectral;
      ji.ncut.pipeline.kmeans = pipeline.kmeans;
      RP_ASSIGN_OR_RETURN(
          cut, JiGeroliminisPartition(target, graph.features(), k, ji));
    } else {
      std::unique_ptr<SpectralCutMethod> method;
      if (options_.scheme == Scheme::kAG || options_.scheme == Scheme::kASG) {
        method = std::make_unique<AlphaCutMethod>(options_.spectral);
      } else {
        method = std::make_unique<NormalizedCutMethod>(options_.spectral);
      }
      // A stored 'cut' stage stands in for the spectral cut. Which graph
      // `target` is follows from the manifest-keyed options plus the mining
      // stage, so a stored cut whose label count matches belongs to it.
      bool cut_stored = false;
      if (auto payload = store.LoadStage(CheckpointStage::kCut)) {
        auto decoded = DecodeCutCheckpoint(*payload);
        if (decoded.ok() && static_cast<int>(decoded->assignment.size()) ==
                                target.num_nodes()) {
          cut = std::move(*decoded);
          cut_stored = true;
        } else {
          outcome.diagnostics.warnings.push_back(
              decoded.ok()
                  ? std::string("checkpoint stage 'cut' does not match "
                                "this graph; recomputing")
                  : "checkpoint stage 'cut' undecodable (" +
                        decoded.status().ToString() + "); recomputing");
        }
      }
      if (!cut_stored) {
        RP_ASSIGN_OR_RETURN(
            cut, SpectralKWayPartition(target, k, *method, pipeline));
        if (store.enabled()) {
          save_stage(CheckpointStage::kCut, EncodeCutCheckpoint(cut));
        }
      }
      if (options_.refine_boundary) {
        // On the supergraph, refinement keeps supernodes atomic, as the
        // supergraph semantics require.
        RP_ASSIGN_OR_RETURN(cut.assignment,
                            RefineBoundary(target, std::move(cut.assignment),
                                           *method, options_.refinement));
        cut.objective = method->Objective(target, cut.assignment);
        cut.k_final = DensifyAssignment(cut.assignment);
      }
      if (sg != nullptr) {
        RP_ASSIGN_OR_RETURN(cut.assignment,
                            sg->ExpandAssignment(cut.assignment));
      }
    }
    outcome.module3_seconds = timer.Seconds();
    outcome.assignment = std::move(cut.assignment);
    outcome.k_final = cut.k_final;
    outcome.k_prime = cut.k_prime;
    outcome.objective = cut.objective;
    outcome.diagnostics.eigen = cut.eigen;
  }
  if (deadline > 0.0) {
    outcome.diagnostics.slack_module3_seconds = remaining();
  }
  RP_RETURN_IF_ERROR(check_deadline("after partitioning"));

  RunDiagnostics& diag = outcome.diagnostics;
  diag.warnings.insert(diag.warnings.end(), repairs.warnings.begin(),
                       repairs.warnings.end());
  if (!diag.eigen.all_converged) {
    diag.warnings.push_back(StrPrintf(
        "eigensolver accepted a best-effort embedding (worst Ritz residual "
        "%.3e); partition quality may be degraded",
        diag.eigen.worst_ritz_residual));
  } else if (diag.eigen.solver_path >= SolverPath::kLanczosRetry) {
    diag.warnings.push_back(StrPrintf(
        "eigensolver escalated to %s before converging",
        SolverPathName(diag.eigen.solver_path)));
  }
  diag.warnings.insert(diag.warnings.end(), store.warnings().begin(),
                       store.warnings().end());

  // Every scheme must hand back a complete, dense, non-empty labelling of the
  // road graph; ExpandAssignment and the k'->k reductions above are exactly
  // the places where an off-by-one would otherwise surface as a plausible
  // partition with a silently missing region.
  RP_DCHECK_OK(ValidatePartitionLabels(outcome.assignment, graph.num_nodes(),
                                       outcome.k_final));

  // Persist the completed run last, after validation — a 'final' checkpoint
  // is a promise that the stored labels are the ones an uninterrupted run
  // returns. Skipped when this run *was* the stored final, so a crash hook
  // armed on 'final' does not re-fire on the resumed run.
  if (!resumed_final && store.enabled()) {
    save_stage(CheckpointStage::kFinal, EncodeFinalCheckpoint(outcome));
  }
  return outcome;
}

}  // namespace roadpart
