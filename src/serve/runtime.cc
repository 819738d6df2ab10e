#include "serve/runtime.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {
namespace {

// Kebab status tokens for `reload failed ...` / `!health` answer lines come
// from common/status.h (StatusCodeKebab), shared with the pipeline journal.

/// True when `window` contains at least one non-blank, non-comment line.
/// Empty windows are skipped entirely so they neither trip the no-snapshot
/// precondition nor consume per-call fault-injection budgets.
bool HasQueryLine(std::string_view window) {
  size_t pos = 0;
  while (pos <= window.size()) {
    const size_t eol = window.find('\n', pos);
    const size_t end = eol == std::string_view::npos ? window.size() : eol;
    if (pos == window.size() && eol == std::string_view::npos) break;
    std::string_view line = Trim(window.substr(pos, end - pos));
    if (!line.empty() && line[0] != '#') return true;
    pos = end + 1;
  }
  return false;
}

}  // namespace

// --- SnapshotManager --------------------------------------------------------

SnapshotManager::SnapshotManager(RetryOptions retry)
    : retry_(std::move(retry)) {}

Status SnapshotManager::Reload(const std::string& path) {
  // The candidate is loaded and validated end to end (envelope checksum,
  // header, section structure — Snapshot::Load) with NO lock held and NO
  // effect on the serving snapshot. Only a candidate that survived every
  // check reaches the swap below.
  Result<Snapshot> candidate = Snapshot::Load(path, retry_);
  Status status = candidate.ok() ? Status::OK() : candidate.status();
  if (status.ok() && RP_FAULT_FIRES(FaultSite::kSnapshotSwapCorruption)) {
    // A publisher whose artifact tore between validation and adoption; the
    // manager must treat it exactly like any other corrupt candidate.
    status = Status::Corruption(
        StrPrintf("rpsnap %s: candidate snapshot declared corrupt at swap "
                  "time (injected)",
                  path.c_str()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    ++diag_.reloads_failed;
    diag_.last_error = status.ToString();
    diag_.last_error_code = status.code();
    return status;
  }
  // The swap is one shared_ptr assignment: readers that already hold the
  // old snapshot keep it alive until their batch finishes; readers that
  // call Current() from here on see the new one. Never a torn state.
  current_ = std::make_shared<const Snapshot>(std::move(candidate).value());
  ++diag_.version;
  ++diag_.reloads_ok;
  return Status::OK();
}

std::shared_ptr<const Snapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

SnapshotManagerDiagnostics SnapshotManager::diagnostics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diag_;
}

// --- ServeRuntime -----------------------------------------------------------

ServeRuntime::ServeRuntime(ServeRuntimeOptions options)
    : options_(std::move(options)), manager_(options_.reload_retry) {}

Status ServeRuntime::LoadSnapshot(const std::string& path) {
  return manager_.Reload(path);
}

void ServeRuntime::AttachPipelineStats(const PipelineFeedStats& stats) {
  pipeline_ = stats;
  pipeline_attached_ = true;
}

Status ServeRuntime::ServeBatch(std::string_view queries,
                                std::string* output) {
  return FlushWindow(queries, /*first_line=*/1, output);
}

Status ServeRuntime::FlushWindow(std::string_view window, size_t first_line,
                                 std::string* output) {
  if (window.empty() || !HasQueryLine(window)) return Status::OK();
  // One owning reference for the whole window: a concurrent (or
  // interleaved) reload can publish a new snapshot, but every query in
  // this window is answered by the snapshot captured here — a batch can
  // never observe half a swap.
  std::shared_ptr<const Snapshot> snapshot = manager_.Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        StrPrintf("serve runtime has no snapshot loaded but the window "
                  "starting at line %zu contains queries",
                  first_line));
  }
  ServeOptions serve = options_.serve;
  serve.first_line_number = first_line;
  ServeBatchStats batch;
  RP_RETURN_IF_ERROR(ServeQueries(*snapshot, window, serve, output, &batch));
  stats_.served += batch.answered_point + batch.answered_range;
  stats_.errored += batch.errored;
  stats_.shed += batch.shed;
  return Status::OK();
}

Status ServeRuntime::HandleControl(std::string_view line, size_t line_number,
                                   std::string* output) {
  // Every verb takes at most one operand; the true count catches the rest.
  std::string_view tokens[2];
  const size_t count = TokenizeSpaces(line, tokens, 2);
  const bool isolate =
      options_.serve.on_malformed == MalformedQueryPolicy::kIsolate;
  auto malformed = [&](const char* detail) -> Status {
    if (isolate) {
      output->append(StrPrintf("error %zu bad-control\n", line_number));
      ++stats_.errored;
      return Status::OK();
    }
    return Status::InvalidArgument(
        StrPrintf("session line %zu: %s", line_number, detail));
  };
  if (tokens[0] == "!reload") {
    if (count != 2) {
      return malformed("'!reload' takes exactly one snapshot path");
    }
    const Status status = manager_.Reload(std::string(tokens[1]));
    if (status.ok()) {
      const std::shared_ptr<const Snapshot> snapshot = manager_.Current();
      output->append(StrPrintf(
          "reload ok version=%lld segments=%d\n",
          static_cast<long long>(manager_.diagnostics().version),
          snapshot->num_segments()));
    } else {
      // The failure is an ANSWER, not a session abort: the old snapshot
      // keeps serving and the script continues.
      output->append(
          StrPrintf("reload failed %s\n", StatusCodeKebab(status.code())));
    }
    return Status::OK();
  }
  if (tokens[0] == "!stats") {
    if (count != 1) return malformed("'!stats' takes no operands");
    const SnapshotManagerDiagnostics diag = manager_.diagnostics();
    output->append(StrPrintf(
        "stats version=%lld served=%lld errored=%lld shed=%lld "
        "reloads_ok=%lld reloads_failed=%lld",
        static_cast<long long>(diag.version),
        static_cast<long long>(stats_.served),
        static_cast<long long>(stats_.errored),
        static_cast<long long>(stats_.shed),
        static_cast<long long>(diag.reloads_ok),
        static_cast<long long>(diag.reloads_failed)));
    if (pipeline_attached_) {
      // Only a pipeline-fed runtime extends the line: standalone sessions
      // keep the historical byte-stable format.
      output->append(StrPrintf(
          " pipeline_published=%lld pipeline_degraded=%lld "
          "pipeline_quarantined=%lld pipeline_staleness=%lld",
          static_cast<long long>(pipeline_.published),
          static_cast<long long>(pipeline_.degraded),
          static_cast<long long>(pipeline_.quarantined),
          static_cast<long long>(pipeline_.staleness)));
    }
    output->append("\n");
    return Status::OK();
  }
  if (tokens[0] == "!health") {
    if (count != 1) return malformed("'!health' takes no operands");
    const SnapshotManagerDiagnostics diag = manager_.diagnostics();
    // Last typed error, most recent layer first: a pipeline reason beats a
    // reload failure (the pipeline is what keeps the snapshot fresh).
    const char* last_error = "none";
    if (pipeline_attached_ && pipeline_.last_reason != "none") {
      last_error = pipeline_.last_reason.c_str();
    } else if (diag.reloads_failed > 0) {
      last_error = StatusCodeKebab(diag.last_error_code);
    }
    output->append(StrPrintf(
        "health version=%lld staleness=%lld reloads_failed=%lld "
        "last_error=%s\n",
        static_cast<long long>(diag.version),
        static_cast<long long>(pipeline_attached_ ? pipeline_.staleness : 0),
        static_cast<long long>(diag.reloads_failed), last_error));
    return Status::OK();
  }
  if (tokens[0] == "!quiesce") {
    if (count != 1) return malformed("'!quiesce' takes no operands");
    // The pending window was flushed before this control executed and
    // every batch is synchronous, so quiescence is immediate.
    output->append("quiesce ok\n");
    return Status::OK();
  }
  return malformed("unknown control verb");
}

Result<std::string> ServeRuntime::RunSession(std::string_view script) {
  std::string output;
  size_t window_start = 0;
  size_t window_first_line = 1;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= script.size()) {
    const size_t eol = script.find('\n', pos);
    const size_t end = eol == std::string_view::npos ? script.size() : eol;
    if (pos == script.size() && eol == std::string_view::npos) break;
    ++line_number;
    const size_t line_start = pos;
    std::string_view line = Trim(script.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty() || line[0] != '!') continue;  // query-window content
    // A control line is a barrier: answer everything before it first.
    RP_RETURN_IF_ERROR(FlushWindow(
        script.substr(window_start, line_start - window_start),
        window_first_line, &output));
    window_start = pos;
    window_first_line = line_number + 1;
    RP_RETURN_IF_ERROR(HandleControl(line, line_number, &output));
  }
  RP_RETURN_IF_ERROR(FlushWindow(script.substr(window_start),
                                 window_first_line, &output));
  return output;
}

}  // namespace roadpart
