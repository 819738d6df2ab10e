#ifndef ROADPART_PIPELINE_JOURNAL_H_
#define ROADPART_PIPELINE_JOURNAL_H_

/// Durable crash-resumable journal of the continuous-operation pipeline
/// (format "rpjournal", version 1).
///
/// The journal is the pipeline's single source of truth about the past: one
/// header block with everything a restarted process needs to rebuild its
/// supervisors (the run key, the frozen top-level regions, the label
/// tracker's reference state, the last published snapshot and its quality),
/// followed by one line per completed interval recording what went in (the
/// input fingerprint), what came out (published / degraded / quarantined
/// with a typed kebab reason), and where the published snapshot lives.
///
/// Durability model: the whole journal is rewritten atomically (durable_io
/// envelope: tmp -> fsync -> rename) after every interval, so a crash at
/// any instant leaves either the previous interval's journal or the current
/// one — never a torn file. Full-rewrite journaling also self-heals: if one
/// interval's write fails, the next interval's rewrite repairs the file.
///
/// Format, versioning and the missing/corrupt/mismatch policy are shared
/// with the other keyed state formats: see the "Keyed state formats" table
/// in DESIGN.md and the tag-line codec in common/durable_io.h. Paths stored
/// in the journal must not contain whitespace (fields are space-separated);
/// the pipeline only writes paths it derived from its own state directory.
/// The fault site kPipelineJournalCorruption rejects a verified journal like
/// a torn one — LoadJournal never fails.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"

namespace roadpart {

/// Terminal state of one pipeline interval.
enum class PipelineIntervalOutcome {
  kPublished = 0,   ///< refreshed, passed the gate, snapshot published
  kDegraded,        ///< refreshed but the publish gate refused it
  kQuarantined,     ///< the refresh itself failed; nothing was adopted
};

const char* PipelineOutcomeName(PipelineIntervalOutcome outcome);
Result<PipelineIntervalOutcome> ParsePipelineOutcome(std::string_view name);

/// One interval's journal record.
struct PipelineJournalEntry {
  int index = 0;                   ///< snapshot index in the series
  double timestamp_seconds = 0.0;  ///< series timestamp (bit-exact)
  uint64_t input_fingerprint = 0;  ///< FNV over timestamp + density bits
  PipelineIntervalOutcome outcome = PipelineIntervalOutcome::kQuarantined;
  /// Typed kebab reason: "none" for published intervals, a status-code
  /// token (e.g. "deadline-exceeded"), gate token ("ans-regression",
  /// "churn-ceiling") or fault-site name for everything else.
  std::string reason = "none";
  bool refreshed = false;  ///< the engine's Refresh executed (mutated state)
  int retries = 0;         ///< extra refresh attempts this interval consumed
  int64_t staleness = 0;   ///< intervals since last publish, AFTER this one
  /// Measured ANS of this interval's refresh (published/degraded); for a
  /// quarantined interval, the served baseline repeats (bit-exact either
  /// way).
  double ans = 0.0;
  double churn = 0.0;      ///< label churn of this interval (0 if not adopted)
  std::string snapshot_path = "-";  ///< published artifact, "-" if none
};

/// The journal: resume header + per-interval records.
struct PipelineJournal {
  /// Key binding the journal to one computation: graph fingerprint +
  /// output-affecting pipeline options. A journal keyed differently is
  /// someone else's history and is never adopted.
  uint64_t key = 0;
  int k_top = 0;                       ///< frozen top-level region count
  std::vector<int> regions;            ///< frozen region id per node
  std::vector<int> tracker_reference;  ///< last aligned labels (may be empty)
  int tracker_next_id = 0;             ///< label tracker id watermark
  std::string last_published_path = "-";
  double last_published_ans = 0.0;     ///< gate baseline (bit-exact)
  int64_t staleness = 0;               ///< current staleness counter
  std::vector<PipelineJournalEntry> entries;
};

/// Atomically writes the journal through the checksummed "rpjournal"
/// envelope. `retry` bounds transient I/O faults.
Status SaveJournal(const PipelineJournal& journal, const std::string& path,
                   const RetryOptions& retry = {});

/// Loads a journal saved by SaveJournal that verifies, decodes strictly,
/// and carries key `expected_key`. Anything else returns nullopt with one
/// warning line appended to `warnings`: the caller cold-restarts.
std::optional<PipelineJournal> LoadJournal(const std::string& path,
                                           uint64_t expected_key,
                                           const RetryOptions& retry,
                                           std::vector<std::string>* warnings);

}  // namespace roadpart

#endif  // ROADPART_PIPELINE_JOURNAL_H_
