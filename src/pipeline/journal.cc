#include "pipeline/journal.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {
namespace {

constexpr const char* kJournalFormat = "rpjournal";
constexpr int kJournalVersion = 1;

/// Decodes the payload after the key line into `j`; any malformed or
/// out-of-range field is an error naming what failed.
Status DecodeJournal(LineCursor& in, PipelineJournal& j) {
  RP_ASSIGN_OR_RETURN(j.k_top, ReadInt(in, "ktop"));
  if (j.k_top <= 0) return Status::Corruption("bad ktop");
  RP_ASSIGN_OR_RETURN(j.regions, ReadIntVec(in, "regions"));
  for (int r : j.regions) {
    if (r < 0 || r >= j.k_top) return Status::Corruption("bad region id");
  }
  RP_ASSIGN_OR_RETURN(j.tracker_next_id, ReadInt(in, "tracker"));
  if (j.tracker_next_id < 0) return Status::Corruption("bad tracker watermark");
  RP_ASSIGN_OR_RETURN(j.tracker_reference, in.IntVecField());
  for (int label : j.tracker_reference) {
    if (label < 0 || label >= j.tracker_next_id) {
      return Status::Corruption("bad tracker label");
    }
  }
  RP_RETURN_IF_ERROR(in.Line("last_published"));
  RP_ASSIGN_OR_RETURN(j.last_published_path, in.WordField());
  RP_ASSIGN_OR_RETURN(j.last_published_ans, in.DoubleField("ans"));
  RP_ASSIGN_OR_RETURN(j.staleness, in.IntField<int64_t>("staleness"));
  if (j.staleness < 0) return Status::Corruption("bad staleness");
  RP_ASSIGN_OR_RETURN(int count, ReadInt(in, "intervals"));
  if (count < 0) return Status::Corruption("bad interval count");
  for (int i = 0; i < count; ++i) {
    PipelineJournalEntry& e = j.entries.emplace_back();
    RP_ASSIGN_OR_RETURN(e.index, ReadInt(in, "interval"));
    if (e.index != i) return Status::Corruption("bad interval header");
    RP_ASSIGN_OR_RETURN(e.timestamp_seconds, in.DoubleField("ts"));
    RP_ASSIGN_OR_RETURN(e.input_fingerprint, in.HexField("input"));
    RP_ASSIGN_OR_RETURN(std::string outcome, in.WordField("outcome"));
    RP_ASSIGN_OR_RETURN(e.outcome, ParsePipelineOutcome(outcome));
    RP_ASSIGN_OR_RETURN(e.reason, in.WordField("reason"));
    RP_ASSIGN_OR_RETURN(int refreshed, in.IntField("refreshed"));
    if (refreshed != 0 && refreshed != 1) {
      return Status::Corruption("bad refreshed flag");
    }
    e.refreshed = refreshed != 0;
    RP_ASSIGN_OR_RETURN(e.retries, in.IntField("retries"));
    if (e.retries < 0) return Status::Corruption("bad retries");
    RP_ASSIGN_OR_RETURN(e.staleness, in.IntField<int64_t>("staleness"));
    if (e.staleness < 0) return Status::Corruption("bad entry staleness");
    RP_ASSIGN_OR_RETURN(e.ans, in.DoubleField("ans"));
    RP_ASSIGN_OR_RETURN(e.churn, in.DoubleField("churn"));
    RP_ASSIGN_OR_RETURN(e.snapshot_path, in.WordField("snapshot"));
    const bool published = e.outcome == PipelineIntervalOutcome::kPublished;
    if (published != (e.snapshot_path != "-")) {
      return Status::Corruption("snapshot path inconsistent with outcome");
    }
  }
  return in.Finish();
}

}  // namespace

const char* PipelineOutcomeName(PipelineIntervalOutcome outcome) {
  switch (outcome) {
    case PipelineIntervalOutcome::kPublished:
      return "published";
    case PipelineIntervalOutcome::kDegraded:
      return "degraded";
    case PipelineIntervalOutcome::kQuarantined:
      return "quarantined";
  }
  return "quarantined";
}

Result<PipelineIntervalOutcome> ParsePipelineOutcome(std::string_view name) {
  if (name == "published") return PipelineIntervalOutcome::kPublished;
  if (name == "degraded") return PipelineIntervalOutcome::kDegraded;
  if (name == "quarantined") return PipelineIntervalOutcome::kQuarantined;
  return Status::InvalidArgument(
      StrPrintf("unknown pipeline outcome '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

Status SaveJournal(const PipelineJournal& journal, const std::string& path,
                   const RetryOptions& retry) {
  LineWriter out;
  out.Line("key").Hex(journal.key);
  out.Line("ktop").Int(journal.k_top);
  out.Line("regions").IntVec(journal.regions);
  out.Line("tracker").Int(journal.tracker_next_id)
      .IntVec(journal.tracker_reference);
  out.Line("last_published").Word(journal.last_published_path)
      .Tag("ans").Double(journal.last_published_ans)
      .Tag("staleness").Int(journal.staleness);
  out.Line("intervals").Int(static_cast<int64_t>(journal.entries.size()));
  for (const PipelineJournalEntry& e : journal.entries) {
    out.Line("interval").Int(e.index)
        .Tag("ts").Double(e.timestamp_seconds)
        .Tag("input").Hex(e.input_fingerprint)
        .Tag("outcome").Word(PipelineOutcomeName(e.outcome))
        .Tag("reason").Word(e.reason)
        .Tag("refreshed").Int(e.refreshed ? 1 : 0)
        .Tag("retries").Int(e.retries)
        .Tag("staleness").Int(e.staleness)
        .Tag("ans").Double(e.ans)
        .Tag("churn").Double(e.churn)
        .Tag("snapshot").Word(e.snapshot_path);
  }
  return WriteArtifact(path, kJournalFormat, kJournalVersion, out.Finish(),
                       retry);
}

std::optional<PipelineJournal> LoadJournal(const std::string& path,
                                           uint64_t expected_key,
                                           const RetryOptions& retry,
                                           std::vector<std::string>* warnings) {
  auto warn = [&](const std::string& why) -> std::optional<PipelineJournal> {
    if (warnings != nullptr) {
      warnings->push_back("pipeline journal not adopted (" + why +
                          "); cold restart");
    }
    return std::nullopt;
  };

  auto cursor = ReadKeyedArtifact(path, kJournalFormat, "key", expected_key,
                                  retry);
  if (!cursor.ok()) return warn(cursor.status().ToString());
  if (RP_FAULT_FIRES(FaultSite::kPipelineJournalCorruption)) {
    // A journal whose bytes verified but whose producer is suspect (e.g. a
    // mid-upgrade writer); the loader must treat it like any torn file.
    return warn("journal declared corrupt after verification (injected)");
  }
  // Decode into a scratch journal; only a fully valid one is adopted.
  PipelineJournal j;
  j.key = expected_key;
  Status decoded = DecodeJournal(*cursor, j);
  if (!decoded.ok()) return warn(decoded.ToString());
  return j;
}

}  // namespace roadpart
