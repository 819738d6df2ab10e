#ifndef ROADPART_CORE_CHECKPOINT_H_
#define ROADPART_CORE_CHECKPOINT_H_

/// Stage-level checkpoint/resume for the partitioning pipeline.
///
/// A checkpointed run persists its intermediate results at the three module
/// boundaries of the paper's pipeline:
///
///   mining  - the mined supergraph (module 2), the expensive step
///   cut     - the spectral cut labels (module 3, pre-refinement)
///   final   - the finished road-level assignment and diagnostics
///
/// Each stage file is a durable artifact (common/durable_io.h): written
/// atomically, checksummed, and strictly verified on load. A checkpoint
/// directory is keyed by a RunManifest — an FNV fingerprint of the input
/// road graph plus a hash of every output-affecting option — so a resumed
/// run can only consume checkpoints produced by an identical computation.
/// Stage payloads serialize doubles as IEEE-754 bit patterns, which makes a
/// resumed run *bit-identical* to an uninterrupted one (and, like the rest
/// of the pipeline, invariant across thread counts).
///
/// Failure policy: a missing, corrupt, or mismatched checkpoint never fails
/// the run — the stage is recomputed and a warning is recorded. Corruption
/// only surfaces as an error where it must: in the durable_io loaders.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/spectral_common.h"
#include "core/supergraph.h"
#include "core/supergraph_miner.h"
#include "network/road_graph.h"

namespace roadpart {

enum class CheckpointStage { kMining = 0, kCut, kFinal };

const char* CheckpointStageName(CheckpointStage stage);
Result<CheckpointStage> ParseCheckpointStage(std::string_view name);

/// Checkpoint policy carried inside PartitionerOptions.
struct CheckpointOptions {
  /// Directory for stage artifacts; empty disables checkpointing entirely.
  std::string dir;
  /// Consume valid completed stages instead of recomputing them. When false
  /// the directory is reinitialized and every stage recomputes (and saves).
  bool resume = false;
  /// Transient-fault retry for checkpoint reads/writes.
  RetryOptions retry;
  /// Test hook for crash-injection: immediately after the named stage
  /// ("mining" / "cut" / "final") is durably saved, the process exits hard
  /// via _Exit(42) — no destructors, no flushes, exactly like a kill. Empty
  /// disables the hook.
  std::string crash_after_stage;
};

/// Identity of a run: which bytes went in, under which configuration.
struct RunManifest {
  uint64_t input_fingerprint = 0;  ///< FingerprintRoadGraph of the input
  uint64_t options_hash = 0;       ///< FNV of the canonical options string
};

/// FNV fingerprint of a road graph's exact contents: CSR arrays and feature
/// bit patterns. Two graphs fingerprint equal iff the pipeline would see
/// identical inputs.
uint64_t FingerprintRoadGraph(const RoadGraph& graph);

/// Manages one checkpoint directory for one run. Lifecycle:
///   CheckpointStore store(options, manifest);
///   store.Initialize();            // validates/creates dir + MANIFEST
///   if (auto p = store.LoadStage(CheckpointStage::kMining)) { ...decode... }
///   ... compute ...
///   store.SaveStage(CheckpointStage::kMining, encoded);
class CheckpointStore {
 public:
  /// Disabled store: every Load misses, every Save is a no-op.
  CheckpointStore() = default;
  CheckpointStore(CheckpointOptions options, RunManifest manifest);

  /// True when a checkpoint directory is configured.
  bool enabled() const { return !options_.dir.empty(); }
  /// True when Initialize accepted an existing matching manifest and loads
  /// may be served.
  bool resuming() const { return resuming_; }

  /// Creates the directory if needed and reconciles the MANIFEST artifact:
  /// a matching manifest (with options_.resume set) enables resuming; a
  /// missing / corrupt / mismatched manifest records a warning, deletes any
  /// stale stage files, and rewrites the manifest for a fresh run. Only
  /// unrecoverable I/O (cannot create dir, cannot write manifest) errors.
  Status Initialize();

  /// Returns the verified payload of a completed stage, or nullopt when the
  /// stage is absent or fails verification (corruption -> warning recorded,
  /// stage recomputes).
  std::optional<std::string> LoadStage(CheckpointStage stage);

  /// Durably persists a stage payload (no-op when disabled). After a
  /// successful save, fires the crash_after_stage hook if armed on `stage`.
  Status SaveStage(CheckpointStage stage, std::string_view payload);

  /// Degradation notes accumulated by Initialize/LoadStage (mismatched
  /// manifest, corrupt stage file, ...), for RunDiagnostics.
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Path of a stage artifact inside the store's directory.
  std::string StagePath(CheckpointStage stage) const;
  std::string ManifestPath() const;

 private:
  CheckpointOptions options_;
  RunManifest manifest_;
  bool resuming_ = false;
  std::vector<std::string> warnings_;
};

// --- Stage payload codecs ---------------------------------------------------
//
// The tag-line codec of common/durable_io.h (every double as an IEEE
// bit-pattern hex field). The codecs are exact inverses: Decode(Encode(x))
// reproduces every stored field of x bit-for-bit, and Decode rejects
// trailing data as Corruption.

/// Module-2 result. When `roadgraph_fallback` is set the mined supergraph
/// stayed below k supernodes even at the strictest stability setting and the
/// pipeline cut the road graph directly; only the supernode count survives
/// (the supergraph itself is not needed on resume).
struct MiningCheckpoint {
  bool roadgraph_fallback = false;
  int num_supernodes = 0;
  double module2_seconds = 0.0;  ///< original mining time, for reporting
  SupergraphMiningReport report;
  std::optional<Supergraph> supergraph;  ///< present iff !roadgraph_fallback
};

std::string EncodeMiningCheckpoint(const MiningCheckpoint& checkpoint);
Result<MiningCheckpoint> DecodeMiningCheckpoint(std::string_view payload);

/// Module-3 spectral-cut result, before boundary refinement. For the
/// supergraph schemes the labels are per supernode; for AG/NG (and the
/// degenerate fallback) they are per road node.
std::string EncodeCutCheckpoint(const GraphCutResult& cut);
Result<GraphCutResult> DecodeCutCheckpoint(std::string_view payload);

// The 'final' stage codec stores a PartitionOutcome, so it is declared next
// to that type in core/partitioner.h.

}  // namespace roadpart

#endif  // ROADPART_CORE_CHECKPOINT_H_
