#include "core/checkpoint.h"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "core/partitioner.h"
#include "core/supergraph_io.h"
#include "graph/csr_graph.h"

namespace roadpart {

namespace {

constexpr int kCheckpointVersion = 2;

constexpr CheckpointStage kAllStages[] = {CheckpointStage::kMining,
                                          CheckpointStage::kFinal};

std::string StageFormat(CheckpointStage stage) {
  return std::string("checkpoint-") + CheckpointStageName(stage);
}

void AppendEigen(LineWriter& out, const EigenSolveDiagnostics& eigen) {
  out.Line("eigen").Int(static_cast<int>(eigen.solver_path)).Int(eigen.solves)
      .Int(eigen.lanczos_restarts).Double(eigen.worst_ritz_residual)
      .Int(eigen.all_converged ? 1 : 0);
}

Result<EigenSolveDiagnostics> ReadEigen(LineCursor& cursor) {
  EigenSolveDiagnostics eigen;
  RP_ASSIGN_OR_RETURN(int path, ReadInt(cursor, "eigen"));
  RP_ASSIGN_OR_RETURN(eigen.solves, cursor.IntField());
  RP_ASSIGN_OR_RETURN(eigen.lanczos_restarts, cursor.IntField());
  RP_ASSIGN_OR_RETURN(eigen.worst_ritz_residual, cursor.DoubleField());
  RP_ASSIGN_OR_RETURN(int converged, cursor.IntField());
  if (path < 0 || path > static_cast<int>(SolverPath::kBestEffort)) {
    return Status::Corruption("checkpoint 'eigen' solver path out of range");
  }
  eigen.solver_path = static_cast<SolverPath>(path);
  eigen.all_converged = converged != 0;
  return eigen;
}

}  // namespace

const char* CheckpointStageName(CheckpointStage stage) {
  switch (stage) {
    case CheckpointStage::kMining:
      return "mining";
    case CheckpointStage::kFinal:
      return "final";
  }
  return "?";
}

Result<CheckpointStage> ParseCheckpointStage(std::string_view name) {
  for (CheckpointStage stage : kAllStages) {
    if (name == CheckpointStageName(stage)) return stage;
  }
  return Status::InvalidArgument(
      StrPrintf("unknown checkpoint stage '%.*s' (want mining|final)",
                static_cast<int>(name.size()), name.data()));
}

uint64_t FingerprintRoadGraph(const RoadGraph& graph) {
  const CsrGraph& adjacency = graph.adjacency();
  uint64_t hash = kFnv1a64Basis;
  auto mix_bytes = [&hash](const void* data, size_t size) {
    hash = Fnv1a64(data, size, hash);
  };
  const int64_t shape[2] = {graph.num_nodes(), adjacency.num_edges()};
  mix_bytes(shape, sizeof(shape));
  mix_bytes(adjacency.offsets().data(),
            adjacency.offsets().size() * sizeof(int64_t));
  mix_bytes(adjacency.neighbors().data(),
            adjacency.neighbors().size() * sizeof(int));
  mix_bytes(adjacency.weights().data(),
            adjacency.weights().size() * sizeof(double));
  mix_bytes(graph.features().data(),
            graph.features().size() * sizeof(double));
  return hash;
}

// --- CheckpointStore --------------------------------------------------------

CheckpointStore::CheckpointStore(CheckpointOptions options, uint64_t run_key)
    : options_(std::move(options)), run_key_(run_key) {}

std::string CheckpointStore::StagePath(CheckpointStage stage) const {
  return options_.dir + "/stage-" + CheckpointStageName(stage) + ".rpcp";
}

Result<LineCursor> CheckpointStore::LoadStage(CheckpointStage stage) const {
  if (!enabled() || !options_.resume) {
    return Status::NotFound("checkpoint store does not resume");
  }
  return ReadKeyedArtifact(StagePath(stage), StageFormat(stage), "run",
                           run_key_, options_.retry);
}

Status CheckpointStore::SaveStage(CheckpointStage stage,
                                  std::string_view payload) const {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " +
                           options_.dir + ": " + ec.message());
  }
  LineWriter key;
  key.Line("run").Hex(run_key_);
  RP_RETURN_IF_ERROR(WriteArtifact(StagePath(stage), StageFormat(stage),
                                   kCheckpointVersion,
                                   key.Finish() + std::string(payload),
                                   options_.retry));
  if (options_.crash_after_stage == CheckpointStageName(stage)) {
    // Crash-injection hook: die the hard way — no unwinding, no buffers
    // flushed — right after this stage became durable.
    std::_Exit(42);
  }
  return Status::OK();
}

// --- Mining checkpoint ------------------------------------------------------

std::string EncodeMiningCheckpoint(const MiningCheckpoint& checkpoint) {
  LineWriter out;
  out.Line("fallback").Int(checkpoint.roadgraph_fallback ? 1 : 0);
  out.Line("supernodes").Int(checkpoint.num_supernodes);
  const SupergraphMiningReport& report = checkpoint.report;
  out.Line("threshold").Double(report.threshold);
  out.Line("sweep-shape").Int(report.effective_max_kappa)
      .Int(report.chosen_kappa).Int(report.supernodes_before_stability)
      .Int(report.supernodes_after_stability);
  out.Line("kappas").IntVec(report.kappas);
  out.Line("mcg").DoubleVec(report.mcg);
  out.Line("shortlisted").IntVec(report.shortlisted_kappas);
  out.Line("components").IntVec(report.component_counts);
  out.Line("stability-values").DoubleVec(report.stability_values);
  if (!checkpoint.roadgraph_fallback && checkpoint.supergraph.has_value()) {
    AppendSupergraph(out, *checkpoint.supergraph);
  }
  return out.Finish();
}

Result<MiningCheckpoint> DecodeMiningCheckpoint(LineCursor cursor,
                                                int num_road_nodes) {
  MiningCheckpoint checkpoint;
  RP_ASSIGN_OR_RETURN(int fallback, ReadInt(cursor, "fallback"));
  checkpoint.roadgraph_fallback = fallback != 0;
  RP_ASSIGN_OR_RETURN(checkpoint.num_supernodes,
                      ReadInt(cursor, "supernodes"));
  SupergraphMiningReport& report = checkpoint.report;
  RP_ASSIGN_OR_RETURN(report.threshold, ReadDouble(cursor, "threshold"));
  RP_ASSIGN_OR_RETURN(report.effective_max_kappa,
                      ReadInt(cursor, "sweep-shape"));
  RP_ASSIGN_OR_RETURN(report.chosen_kappa, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.supernodes_before_stability, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.supernodes_after_stability, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.kappas, ReadIntVec(cursor, "kappas"));
  RP_ASSIGN_OR_RETURN(report.mcg, ReadDoubleVec(cursor, "mcg"));
  RP_ASSIGN_OR_RETURN(report.shortlisted_kappas,
                      ReadIntVec(cursor, "shortlisted"));
  RP_ASSIGN_OR_RETURN(report.component_counts,
                      ReadIntVec(cursor, "components"));
  RP_ASSIGN_OR_RETURN(report.stability_values,
                      ReadDoubleVec(cursor, "stability-values"));
  if (checkpoint.roadgraph_fallback) {
    RP_RETURN_IF_ERROR(cursor.Finish());
    return checkpoint;
  }

  RP_ASSIGN_OR_RETURN(Supergraph supergraph, ReadSupergraph(cursor));
  RP_RETURN_IF_ERROR(cursor.Finish());
  if (supergraph.num_road_nodes() != num_road_nodes ||
      supergraph.num_supernodes() != checkpoint.num_supernodes) {
    return Status::Corruption(StrPrintf(
        "checkpoint 'mining' supergraph has %d supernodes over %d road "
        "nodes; expected %d over %d",
        supergraph.num_supernodes(), supergraph.num_road_nodes(),
        checkpoint.num_supernodes, num_road_nodes));
  }
  checkpoint.supergraph = std::move(supergraph);
  return checkpoint;
}

// --- Final checkpoint -------------------------------------------------------

std::string EncodeFinalCheckpoint(const PartitionOutcome& outcome) {
  LineWriter out;
  out.Line("k-final").Int(outcome.k_final);
  out.Line("k-prime").Int(outcome.k_prime);
  out.Line("supernodes").Int(outcome.num_supernodes);
  out.Line("objective").Double(outcome.objective);
  AppendEigen(out, outcome.diagnostics.eigen);
  out.Line("assignment").IntVec(outcome.assignment);
  return out.Finish();
}

Result<PartitionOutcome> DecodeFinalCheckpoint(LineCursor cursor,
                                               int num_nodes) {
  PartitionOutcome outcome;
  RP_ASSIGN_OR_RETURN(outcome.k_final, ReadInt(cursor, "k-final"));
  RP_ASSIGN_OR_RETURN(outcome.k_prime, ReadInt(cursor, "k-prime"));
  RP_ASSIGN_OR_RETURN(outcome.num_supernodes, ReadInt(cursor, "supernodes"));
  RP_ASSIGN_OR_RETURN(outcome.objective, ReadDouble(cursor, "objective"));
  RP_ASSIGN_OR_RETURN(outcome.diagnostics.eigen, ReadEigen(cursor));
  RP_ASSIGN_OR_RETURN(outcome.assignment, ReadIntVec(cursor, "assignment"));
  RP_RETURN_IF_ERROR(cursor.Finish());
  // The stored labels are served as they are: they must be a complete,
  // dense labelling of this graph, as the run that saved them validated.
  Status labels =
      ValidatePartitionLabels(outcome.assignment, num_nodes, outcome.k_final);
  if (!labels.ok()) {
    return Status::Corruption("checkpoint 'final' " + labels.message());
  }
  return outcome;
}

}  // namespace roadpart
