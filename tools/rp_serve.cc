// rp_serve — partition-lookup server over rpsnap snapshots.
//
//   rp_serve [--threads=T] [--batch-size=N] [--out=FILE]
//            [--on-malformed=strict|isolate]
//            [--max-inflight-queries=N] [--max-inflight-bytes=N]
//            [--deadline-seconds=S] [--session]
//            <snapshot.rpsnap> [queries.txt|-]
//
// Batch mode (default) reads one query per line from queries.txt (or stdin
// when the operand is omitted or "-"):
//
//   point <x> <y>
//   range <minx> <miny> <maxx> <maxy>
//
// and writes one answer line per query, in input order, to stdout (or
// atomically to --out). Malformed lines abort the run (strict, the batch
// default) or answer `error <line> <reason>` in place (--on-malformed=
// isolate). The admission flags bound how many queries/bytes one window
// admits (excess answers `shed <line> <reason>`), and --deadline-seconds
// bounds each window's wall time. See src/serve/serve_loop.h.
//
// Session mode (--session) treats the input as a script interleaving
// queries with control lines — `!reload <path>`, `!stats`, `!quiesce` — so
// snapshots hot-swap under load without restarting the process; a reload of
// a corrupt candidate answers `reload failed <reason>` and the old snapshot
// keeps serving. Malformed handling defaults to isolate in session mode.
// See src/serve/runtime.h for the protocol.
//
// --threads only changes speed: output is byte-identical for every value.

#include <climits>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rp_serve [--threads=T] [--batch-size=N] [--out=FILE]"
               " [--on-malformed=strict|isolate]"
               " [--max-inflight-queries=N] [--max-inflight-bytes=N]"
               " [--deadline-seconds=S] [--session]"
               " <snapshot.rpsnap> [queries.txt|-]\n");
  return 2;
}

Result<std::string> ReadAllStdin() {
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
    data.append(buf, got);
  }
  // fread returns 0 for both EOF and error; a failing pipe must not be
  // served as a truncated-but-"successful" query stream.
  if (std::ferror(stdin)) {
    return Status::IOError("failed reading queries from stdin");
  }
  return data;
}

int Main(int argc, char** argv) {
  auto flags = FlagParser::Parse(
      argc - 1, argv + 1,
      {"threads", "batch-size", "out", "on-malformed", "max-inflight-queries",
       "max-inflight-bytes", "deadline-seconds", "session"},
      /*bool_flags=*/{"session"});
  if (!flags.ok()) return Fail(flags.status());
  if (flags->positional().empty() || flags->positional().size() > 2) {
    return Usage();
  }
  // Both land in `int` options: range-check before narrowing.
  auto threads = flags->GetIntInRange("threads", 0, 0, INT_MAX);
  if (!threads.ok()) return Fail(threads.status());
  auto batch = flags->GetIntInRange("batch-size", 4096, 1, INT_MAX);
  if (!batch.ok()) return Fail(batch.status());
  auto max_queries = flags->GetInt("max-inflight-queries", 0);
  if (!max_queries.ok()) return Fail(max_queries.status());
  auto max_bytes = flags->GetInt("max-inflight-bytes", 0);
  if (!max_bytes.ok()) return Fail(max_bytes.status());
  if (*max_queries < 0 || *max_bytes < 0) {
    return Fail(Status::InvalidArgument(
        "--max-inflight-queries/--max-inflight-bytes must be >= 0"));
  }
  auto deadline = flags->GetDouble("deadline-seconds", 0.0);
  if (!deadline.ok()) return Fail(deadline.status());
  if (!(*deadline >= 0.0)) {
    return Fail(Status::InvalidArgument("--deadline-seconds must be >= 0"));
  }
  const bool session = flags->GetBool("session", false);
  // Batch mode keeps the historical strict default; a session exists to
  // keep serving, so it defaults to isolate. --on-malformed overrides both.
  const std::string policy_name =
      flags->GetString("on-malformed", session ? "isolate" : "strict");
  MalformedQueryPolicy policy;
  if (policy_name == "strict") {
    policy = MalformedQueryPolicy::kStrict;
  } else if (policy_name == "isolate") {
    policy = MalformedQueryPolicy::kIsolate;
  } else {
    return Fail(Status::InvalidArgument(
        "--on-malformed must be 'strict' or 'isolate'"));
  }

  ServeRuntimeOptions options;
  options.serve.num_threads = static_cast<int>(*threads);
  options.serve.batch_size = static_cast<int>(*batch);
  options.serve.on_malformed = policy;
  options.serve.max_inflight_queries = *max_queries;
  options.serve.max_inflight_bytes = *max_bytes;
  options.serve.deadline_seconds = *deadline;
  ServeRuntime runtime(options);

  Status loaded = runtime.LoadSnapshot(flags->positional()[0]);
  if (!loaded.ok()) return Fail(loaded);
  {
    const auto snapshot = runtime.snapshot_manager().Current();
    std::fprintf(stderr,
                 "loaded %s: %d segments, %d partitions, fingerprint %s\n",
                 flags->positional()[0].c_str(), snapshot->num_segments(),
                 snapshot->num_partitions(),
                 Uint64ToHex(snapshot->source_fingerprint()).c_str());
  }

  std::string input;
  const std::string source =
      flags->positional().size() == 2 ? flags->positional()[1] : "-";
  if (source == "-") {
    auto bytes = ReadAllStdin();
    if (!bytes.ok()) return Fail(bytes.status());
    input = std::move(bytes).value();
  } else {
    auto bytes = ReadFileBytes(source);
    if (!bytes.ok()) return Fail(bytes.status());
    input = std::move(bytes).value();
  }

  std::string answers;
  if (session) {
    auto result = runtime.RunSession(input);
    if (!result.ok()) return Fail(result.status());
    answers = std::move(result).value();
  } else {
    Status st = runtime.ServeBatch(input, &answers);
    if (!st.ok()) return Fail(st);
  }

  const ServeRuntimeStats& stats = runtime.stats();
  const SnapshotManagerDiagnostics diag =
      runtime.snapshot_manager().diagnostics();
  std::fprintf(stderr,
               "served=%lld errored=%lld shed=%lld reloads_ok=%lld "
               "reloads_failed=%lld version=%lld\n",
               static_cast<long long>(stats.served),
               static_cast<long long>(stats.errored),
               static_cast<long long>(stats.shed),
               static_cast<long long>(diag.reloads_ok),
               static_cast<long long>(diag.reloads_failed),
               static_cast<long long>(diag.version));

  const std::string out_path = flags->GetString("out", "");
  if (out_path.empty()) {
    std::fwrite(answers.data(), 1, answers.size(), stdout);
  } else {
    Status st = AtomicWriteFile(out_path, answers);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace roadpart

int main(int argc, char** argv) { return roadpart::Main(argc, argv); }
