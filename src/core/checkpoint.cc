#include "core/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "core/partitioner.h"
#include "core/supergraph_io.h"
#include "graph/csr_graph.h"

namespace roadpart {

namespace {

constexpr char kManifestFormat[] = "checkpoint-manifest";
constexpr int kCheckpointVersion = 1;

constexpr CheckpointStage kAllStages[] = {
    CheckpointStage::kMining, CheckpointStage::kCut, CheckpointStage::kFinal};

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
    case CheckpointStage::kCut:
      return "cut";
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
      StrPrintf("unknown checkpoint stage '%.*s' (want mining|cut|final)",
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

CheckpointStore::CheckpointStore(CheckpointOptions options,
                                 RunManifest manifest)
    : options_(std::move(options)), manifest_(manifest) {}

std::string CheckpointStore::StagePath(CheckpointStage stage) const {
  return options_.dir + "/stage-" + CheckpointStageName(stage) + ".rpcp";
}

std::string CheckpointStore::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}

Status CheckpointStore::Initialize() {
  if (!enabled()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " +
                           options_.dir + ": " + ec.message());
  }
  bool fresh = true;
  if (options_.resume) {
    // The manifest is keyed by the input fingerprint; its options hash is
    // the second field that must agree.
    auto existing = [&]() -> Status {
      RP_ASSIGN_OR_RETURN(
          LineCursor cursor,
          ReadKeyedArtifact(ManifestPath(), kManifestFormat, "input",
                            manifest_.input_fingerprint, options_.retry));
      RP_RETURN_IF_ERROR(cursor.Line("options"));
      RP_ASSIGN_OR_RETURN(uint64_t options_hash, cursor.HexField());
      RP_RETURN_IF_ERROR(cursor.Finish());
      if (options_hash != manifest_.options_hash) {
        return Status::FailedPrecondition("options changed");
      }
      return Status::OK();
    }();
    if (existing.ok()) {
      resuming_ = true;
      fresh = false;
    } else if (existing.code() == StatusCode::kFailedPrecondition) {
      warnings_.push_back(
          "checkpoint manifest belongs to a different run (input or "
          "options changed); recomputing all stages");
    } else if (existing.code() != StatusCode::kIOError) {
      // Torn / corrupt manifest. A missing one (kIOError) is just a first
      // run and not worth a warning.
      warnings_.push_back("checkpoint manifest failed verification (" +
                          existing.ToString() + "); recomputing all stages");
    }
  }
  if (fresh) {
    // Stale stage files under an old manifest must not survive: a crash
    // between the manifest write and the first stage save would otherwise
    // let a later resume pair the new manifest with old stages.
    for (CheckpointStage stage : kAllStages) {
      (void)std::remove(StagePath(stage).c_str());
    }
    LineWriter out;
    out.Line("input").Hex(manifest_.input_fingerprint);
    out.Line("options").Hex(manifest_.options_hash);
    RP_RETURN_IF_ERROR(WriteArtifact(ManifestPath(), kManifestFormat,
                                     kCheckpointVersion, out.Finish(),
                                     options_.retry));
  }
  return Status::OK();
}

std::optional<std::string> CheckpointStore::LoadStage(CheckpointStage stage) {
  if (!enabled() || !resuming_) return std::nullopt;
  auto payload = ReadArtifact(StagePath(stage),
                              {.expected_format = StageFormat(stage),
                               .require_envelope = true,
                               .retry = options_.retry});
  if (payload.ok()) return std::move(*payload);
  if (payload.status().code() != StatusCode::kIOError) {
    warnings_.push_back(StrPrintf(
        "checkpoint stage '%s' failed verification (%s); recomputing",
        CheckpointStageName(stage), payload.status().ToString().c_str()));
  }
  return std::nullopt;
}

Status CheckpointStore::SaveStage(CheckpointStage stage,
                                  std::string_view payload) {
  if (!enabled()) return Status::OK();
  RP_RETURN_IF_ERROR(WriteArtifact(StagePath(stage), StageFormat(stage),
                                   kCheckpointVersion, payload,
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
  out.Line("module2").Double(checkpoint.module2_seconds);
  const SupergraphMiningReport& report = checkpoint.report;
  out.Line("threshold").Double(report.threshold);
  out.Line("sweep-shape").Int(report.effective_max_kappa)
      .Int(report.chosen_kappa).Int(report.supernodes_before_stability)
      .Int(report.supernodes_after_stability);
  out.Line("phase-seconds").Double(report.sweep_seconds)
      .Double(report.cluster_seconds).Double(report.superlink_seconds);
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

Result<MiningCheckpoint> DecodeMiningCheckpoint(std::string_view payload) {
  LineCursor cursor{std::string(payload)};
  MiningCheckpoint checkpoint;
  RP_ASSIGN_OR_RETURN(int fallback, ReadInt(cursor, "fallback"));
  checkpoint.roadgraph_fallback = fallback != 0;
  RP_ASSIGN_OR_RETURN(checkpoint.num_supernodes,
                      ReadInt(cursor, "supernodes"));
  RP_ASSIGN_OR_RETURN(checkpoint.module2_seconds,
                      ReadDouble(cursor, "module2"));
  SupergraphMiningReport& report = checkpoint.report;
  RP_ASSIGN_OR_RETURN(report.threshold, ReadDouble(cursor, "threshold"));
  RP_ASSIGN_OR_RETURN(report.effective_max_kappa,
                      ReadInt(cursor, "sweep-shape"));
  RP_ASSIGN_OR_RETURN(report.chosen_kappa, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.supernodes_before_stability, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.supernodes_after_stability, cursor.IntField());
  RP_ASSIGN_OR_RETURN(report.sweep_seconds,
                      ReadDouble(cursor, "phase-seconds"));
  RP_ASSIGN_OR_RETURN(report.cluster_seconds, cursor.DoubleField());
  RP_ASSIGN_OR_RETURN(report.superlink_seconds, cursor.DoubleField());
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
  checkpoint.supergraph = std::move(supergraph);
  return checkpoint;
}

// --- Cut checkpoint ---------------------------------------------------------

std::string EncodeCutCheckpoint(const GraphCutResult& cut) {
  LineWriter out;
  out.Line("k-final").Int(cut.k_final);
  out.Line("k-prime").Int(cut.k_prime);
  out.Line("objective").Double(cut.objective);
  AppendEigen(out, cut.eigen);
  out.Line("assignment").IntVec(cut.assignment);
  return out.Finish();
}

Result<GraphCutResult> DecodeCutCheckpoint(std::string_view payload) {
  LineCursor cursor{std::string(payload)};
  GraphCutResult cut;
  RP_ASSIGN_OR_RETURN(cut.k_final, ReadInt(cursor, "k-final"));
  RP_ASSIGN_OR_RETURN(cut.k_prime, ReadInt(cursor, "k-prime"));
  RP_ASSIGN_OR_RETURN(cut.objective, ReadDouble(cursor, "objective"));
  RP_ASSIGN_OR_RETURN(cut.eigen, ReadEigen(cursor));
  RP_ASSIGN_OR_RETURN(cut.assignment, ReadIntVec(cursor, "assignment"));
  RP_RETURN_IF_ERROR(cursor.Finish());
  return cut;
}

// --- Final checkpoint -------------------------------------------------------

std::string EncodeFinalCheckpoint(const PartitionOutcome& outcome) {
  LineWriter out;
  out.Line("k-final").Int(outcome.k_final);
  out.Line("k-prime").Int(outcome.k_prime);
  out.Line("supernodes").Int(outcome.num_supernodes);
  out.Line("objective").Double(outcome.objective);
  out.Line("module2").Double(outcome.module2_seconds);
  out.Line("module3").Double(outcome.module3_seconds);
  AppendEigen(out, outcome.diagnostics.eigen);
  out.Line("assignment").IntVec(outcome.assignment);
  return out.Finish();
}

Result<PartitionOutcome> DecodeFinalCheckpoint(std::string_view payload) {
  LineCursor cursor{std::string(payload)};
  PartitionOutcome outcome;
  RP_ASSIGN_OR_RETURN(outcome.k_final, ReadInt(cursor, "k-final"));
  RP_ASSIGN_OR_RETURN(outcome.k_prime, ReadInt(cursor, "k-prime"));
  RP_ASSIGN_OR_RETURN(outcome.num_supernodes, ReadInt(cursor, "supernodes"));
  RP_ASSIGN_OR_RETURN(outcome.objective, ReadDouble(cursor, "objective"));
  RP_ASSIGN_OR_RETURN(outcome.module2_seconds, ReadDouble(cursor, "module2"));
  RP_ASSIGN_OR_RETURN(outcome.module3_seconds, ReadDouble(cursor, "module3"));
  RP_ASSIGN_OR_RETURN(outcome.diagnostics.eigen, ReadEigen(cursor));
  RP_ASSIGN_OR_RETURN(outcome.assignment, ReadIntVec(cursor, "assignment"));
  RP_RETURN_IF_ERROR(cursor.Finish());
  return outcome;
}

}  // namespace roadpart
