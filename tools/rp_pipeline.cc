// rp_pipeline — supervised refresh -> publish -> serve pipeline over a
// snapshot series (src/pipeline/).
//
//   rp_pipeline [--threads=T] [--state-dir=DIR]
//               [--scheme=S] [--k=K] [--inner-scheme=S] [--inner-k=K]
//               [--seed=N] [--trigger-ratio=R] [--boundary-delta-ratio=R]
//               [--no-warm-start] [--deadline-seconds=S]
//               [--ans-margin=M] [--churn-ceiling=C]
//               [--retry-attempts=N] [--no-resume]
//               [--crash-after-interval=T]
//               <network.net> <series.csv>
//
// Drives the continuous-operation loop: snapshot 0 fixes the top-level
// regions, every interval refreshes the partition incrementally, and each
// refresh that passes the publication gate (ANS floor + churn ceiling) is
// published as an immutable rpsnap snapshot under --state-dir. Failures are
// contained per interval: a poisoned density feed, an eigensolver that will
// not converge, or a region re-cut blowing --deadline-seconds quarantines
// that interval with a typed kebab reason while the last good snapshot
// keeps serving.
//
// All durable state (journal.rpj, cache.rpinc, snap-*.rpsnap) lives in
// --state-dir. A killed pipeline re-run over the same state dir resumes
// mid-series from the journal and the incremental cache; the completed
// journal is byte-identical to an uninterrupted run, for every --threads
// value. --no-resume forces a cold start. --crash-after-interval=T is the
// chaos-test hook: the process _Exit(42)s right after interval T's journal
// write.
//
// Output: one line per interval driven by THIS process,
//
//   interval <t> <published|degraded|quarantined> reason=<kebab>
//       ans=<v> churn=<v> staleness=<n>
//
// then one summary line:
//
//   pipeline intervals=<n> published=<n> degraded=<n> quarantined=<n>
//       retries=<n> resumed=<n> staleness=<n> last=<path|->
//
// Warnings (quarantine details, rejected journals, repaired densities) go
// to stderr. Exit 0 whenever the pipeline ran to the end of the series —
// quarantined intervals are contained, not fatal.

#include <climits>
#include <cstdint>
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
  std::fprintf(
      stderr,
      "usage: rp_pipeline [--threads=T] [--state-dir=DIR] [--scheme=S]"
      " [--k=K]\n"
      "                   [--inner-scheme=S] [--inner-k=K] [--seed=N]\n"
      "                   [--trigger-ratio=R] [--boundary-delta-ratio=R]\n"
      "                   [--no-warm-start] [--deadline-seconds=S]\n"
      "                   [--ans-margin=M] [--churn-ceiling=C]\n"
      "                   [--retry-attempts=N] [--no-resume]\n"
      "                   [--crash-after-interval=T]"
      " <network.net> <series.csv>\n");
  return 2;
}

int Main(int argc, char** argv) {
  auto flags = FlagParser::Parse(
      argc - 1, argv + 1,
      {"threads", "state-dir", "scheme", "k", "inner-scheme", "inner-k",
       "seed", "trigger-ratio", "boundary-delta-ratio", "no-warm-start",
       "deadline-seconds", "ans-margin", "churn-ceiling", "retry-attempts",
       "no-resume", "crash-after-interval"},
      /*bool_flags=*/{"no-warm-start", "no-resume"});
  if (!flags.ok()) return Fail(flags.status());
  if (flags->positional().size() != 2) return Usage();

  auto threads = flags->GetIntInRange("threads", 0, 0, INT_MAX);
  if (!threads.ok()) return Fail(threads.status());
  if (*threads > 0) SetDefaultParallelism(static_cast<int>(*threads));

  auto scheme = ParseScheme(flags->GetString("scheme", "ASG"));
  if (!scheme.ok()) return Fail(scheme.status());
  auto inner_scheme = ParseScheme(flags->GetString("inner-scheme", "AG"));
  if (!inner_scheme.ok()) return Fail(inner_scheme.status());
  auto k = flags->GetIntInRange("k", 4, 1, INT_MAX);
  if (!k.ok()) return Fail(k.status());
  auto inner_k = flags->GetIntInRange("inner-k", 2, 1, INT_MAX);
  if (!inner_k.ok()) return Fail(inner_k.status());
  auto retry_attempts = flags->GetIntInRange("retry-attempts", 2, 1, INT_MAX);
  if (!retry_attempts.ok()) return Fail(retry_attempts.status());
  // -1 (the default) never crashes.
  auto crash_after =
      flags->GetIntInRange("crash-after-interval", -1, -1, INT_MAX);
  if (!crash_after.ok()) return Fail(crash_after.status());
  auto seed = flags->GetIntInRange("seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  auto trigger = flags->GetDouble("trigger-ratio", 0.05);
  auto boundary = flags->GetDouble("boundary-delta-ratio", 0.05);
  auto deadline = flags->GetDouble("deadline-seconds", 0.0);
  auto ans_margin = flags->GetDouble("ans-margin", 0.05);
  auto churn_ceiling = flags->GetDouble("churn-ceiling", 0.75);
  for (const Result<double>* value :
       {&trigger, &boundary, &deadline, &ans_margin, &churn_ceiling}) {
    if (!value->ok()) return Fail(value->status());
  }
  if (!(*deadline >= 0.0)) {
    return Fail(Status::InvalidArgument("--deadline-seconds must be >= 0"));
  }
  const std::string state_dir = flags->GetString("state-dir", "rp-pipeline");

  auto net = LoadRoadNetwork(flags->positional()[0]);
  if (!net.ok()) return Fail(net.status());
  auto series = LoadSnapshotSeries(flags->positional()[1]);
  if (!series.ok()) return Fail(series.status());

  PipelineOptions options;
  options.driver.initial.scheme = *scheme;
  options.driver.initial.k = static_cast<int>(*k);
  options.driver.initial.seed = static_cast<uint64_t>(*seed);
  options.driver.initial.deadline_seconds = *deadline;
  options.driver.refresh.partitioner.scheme = *inner_scheme;
  options.driver.refresh.partitioner.k = static_cast<int>(*inner_k);
  options.driver.refresh.partitioner.seed = static_cast<uint64_t>(*seed);
  options.driver.refresh.partitioner.deadline_seconds = *deadline;
  options.driver.refresh.trigger_ratio = *trigger;
  options.driver.refresh.boundary_delta_ratio = *boundary;
  options.driver.refresh.warm_start_embeddings =
      !flags->GetBool("no-warm-start", false);
  options.driver.refresh.num_threads = DefaultParallelism();  // --threads
  options.state_dir = state_dir;
  options.ans_margin = *ans_margin;
  options.churn_ceiling = *churn_ceiling;
  options.max_refresh_attempts = static_cast<int>(*retry_attempts);
  options.resume = !flags->GetBool("no-resume", false);
  options.crash_after_interval = static_cast<int>(*crash_after);
  options.on_interval = [](const PipelineJournalEntry& e) {
    std::printf("interval %d %s reason=%s ans=%.6f churn=%.4f staleness=%lld\n",
                e.index, PipelineOutcomeName(e.outcome), e.reason.c_str(),
                e.ans, e.churn, static_cast<long long>(e.staleness));
  };

  auto result = RunPipeline(*net, *series, options);
  if (!result.ok()) return Fail(result.status());

  for (const std::string& w : result->warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }
  const PipelineFeedStats& stats = result->stats;
  std::printf(
      "pipeline intervals=%lld published=%lld degraded=%lld "
      "quarantined=%lld retries=%lld resumed=%lld staleness=%lld last=%s\n",
      static_cast<long long>(stats.intervals),
      static_cast<long long>(stats.published),
      static_cast<long long>(stats.degraded),
      static_cast<long long>(stats.quarantined),
      static_cast<long long>(stats.retries),
      static_cast<long long>(stats.resumed),
      static_cast<long long>(stats.staleness),
      result->last_published_path.c_str());
  return 0;
}

}  // namespace
}  // namespace roadpart

int main(int argc, char** argv) { return roadpart::Main(argc, argv); }
