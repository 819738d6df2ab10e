#ifndef ROADPART_CORE_CHECKPOINT_H_
#define ROADPART_CORE_CHECKPOINT_H_

/// Stage-level checkpoint/resume for the partitioning pipeline.
///
/// A checkpointed run persists one stage per expensive module of the paper's
/// pipeline:
///
///   mining  - the mined supergraph (module 2; ASG and NSG only)
///   final   - the finished road-level assignment and diagnostics (module 3)
///
/// Each stage file is a keyed artifact (common/durable_io.h): written
/// atomically, checksummed, strictly verified on load, and led by a
/// "run <hex>" line. The run key hashes the input road graph's fingerprint
/// with every output-affecting option, so a resumed run only adopts stages
/// produced by an identical computation, and a stage left behind by another
/// run fails its own key check. Stage payloads hold no wall-clock values and
/// serialize doubles as IEEE-754 bit patterns: a stage file is a pure
/// function of its run key, and a resumed run is *bit-identical* to an
/// uninterrupted one (and, like the rest of the pipeline, invariant across
/// thread counts).
///
/// Failure policy: a missing, corrupt, foreign or undecodable stage never
/// fails the run — the stage is recomputed, with a warning unless the file
/// was simply absent.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/supergraph.h"
#include "core/supergraph_miner.h"
#include "network/road_graph.h"

namespace roadpart {

enum class CheckpointStage { kMining = 0, kFinal };

const char* CheckpointStageName(CheckpointStage stage);
Result<CheckpointStage> ParseCheckpointStage(std::string_view name);

/// Checkpoint policy carried inside PartitionerOptions.
struct CheckpointOptions {
  /// Directory for stage artifacts, created on the first save; empty
  /// disables checkpointing entirely.
  std::string dir;
  /// Adopt valid completed stages of this run instead of recomputing them.
  /// When false no stage is loaded; every stage recomputes and is saved
  /// over whatever the directory held.
  bool resume = false;
  /// Transient-fault retry for checkpoint reads/writes.
  RetryOptions retry;
  /// Test hook for crash-injection: immediately after the named stage
  /// ("mining" / "final") is durably saved, the process exits hard via
  /// _Exit(42) — no destructors, no flushes, exactly like a kill. Empty
  /// disables the hook.
  std::string crash_after_stage;
};

/// FNV fingerprint of a road graph's exact contents: CSR arrays and feature
/// bit patterns. Two graphs fingerprint equal iff the pipeline would see
/// identical inputs.
uint64_t FingerprintRoadGraph(const RoadGraph& graph);

/// One checkpoint directory seen by one run, identified by its run key:
///   CheckpointStore store(options, run_key);
///   auto cursor = store.LoadStage(CheckpointStage::kMining);  // then decode
///   ... compute ...
///   store.SaveStage(CheckpointStage::kMining, EncodeMiningCheckpoint(m));
class CheckpointStore {
 public:
  /// Disabled store: every Load misses, every Save is a no-op.
  CheckpointStore() = default;
  CheckpointStore(CheckpointOptions options, uint64_t run_key);

  /// True when a checkpoint directory is configured.
  bool enabled() const { return !options_.dir.empty(); }

  /// The payload of a stored stage of this run, positioned after its key
  /// line. kNotFound when the store does not resume (it never loads then);
  /// otherwise ReadKeyedArtifact's codes: kIOError for a missing file,
  /// kCorruption for a torn file or a missing key line, kFailedPrecondition
  /// for a stage keyed to another run.
  Result<LineCursor> LoadStage(CheckpointStage stage) const;

  /// Durably persists a stage as its "run <hex>" key line followed by
  /// `payload` (no-op when disabled), creating the directory if needed.
  /// After a successful save, fires the crash_after_stage hook if armed on
  /// `stage`.
  Status SaveStage(CheckpointStage stage, std::string_view payload) const;

  /// Path of a stage artifact inside the store's directory.
  std::string StagePath(CheckpointStage stage) const;

 private:
  CheckpointOptions options_;
  uint64_t run_key_ = 0;
};

// --- Stage payload codecs ---------------------------------------------------
//
// The tag-line codec of common/durable_io.h (every double as an IEEE
// bit-pattern hex field); the run key line is the store's, not the codec's.
// The codecs are exact inverses: Decode(Encode(x)) reproduces every stored
// field of x bit-for-bit. Decode rejects trailing data as Corruption, and
// so too a payload that does not fit the graph it is about to be used on
// (each decoder names its checks).

/// Module-2 result. When `roadgraph_fallback` is set the mined supergraph
/// stayed below k supernodes even at the strictest stability setting and the
/// pipeline cut the road graph directly; only the supernode count survives
/// (the supergraph itself is not needed on resume). The report's phase
/// timings are not stored.
struct MiningCheckpoint {
  bool roadgraph_fallback = false;
  int num_supernodes = 0;
  SupergraphMiningReport report;
  std::optional<Supergraph> supergraph;  ///< present iff !roadgraph_fallback
};

std::string EncodeMiningCheckpoint(const MiningCheckpoint& checkpoint);
/// A stored supergraph must cover `num_road_nodes` road nodes and hold the
/// stored supernode count.
Result<MiningCheckpoint> DecodeMiningCheckpoint(LineCursor cursor,
                                                int num_road_nodes);

// The 'final' stage codec stores a PartitionOutcome, so it is declared next
// to that type in core/partitioner.h.

}  // namespace roadpart

#endif  // ROADPART_CORE_CHECKPOINT_H_
