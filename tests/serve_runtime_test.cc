// Chaos suite for the serving runtime (src/serve/runtime.{h,cc} + the
// serve_loop isolation/admission extensions):
//
//  - per-query fault isolation: one malformed line answers `error` in place
//    under the isolate policy and aborts the whole batch under strict
//    (including the inverted-range-box rule);
//  - admission control: query/byte budgets shed deterministically in input
//    order, and the injected overflow and timeout sites drive the shed
//    paths without wall clocks;
//  - hot snapshot swap: a reload-under-load session answers old-snapshot
//    queries before the swap and new-snapshot queries after it; reloading
//    the file already serving changes no answer byte; a corrupt
//    candidate — any single byte flip of the file, or the injected
//    swap-corruption site on a valid file — NEVER becomes current and the
//    old snapshot keeps serving;
//  - exact accounting: `!stats` counters are exact, every non-blank,
//    non-comment script line gets exactly one answer line, and a soak
//    session interleaving queries, reloads, faults and shedding is
//    byte-identical for every thread count and batch size.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Result<RoadNetwork> SmallGridNetwork() {
  GridOptions grid;
  grid.rows = 3;
  grid.cols = 3;
  grid.two_way_fraction = 1.0;
  grid.seed = 9;
  return GenerateGridNetwork(grid);
}

std::vector<int> ShiftedLabels(int num_segments, int k, int shift) {
  std::vector<int> labels(static_cast<size_t>(num_segments));
  for (int s = 0; s < num_segments; ++s) {
    labels[static_cast<size_t>(s)] = (s + shift) % k;
  }
  return labels;
}

// Mirrors serve_loop's answer formatting so tests can state EXACT expected
// session output. Exact-equality against answers computed directly from
// snapshot A or B is the strongest form of "never serves a torn snapshot":
// every answer is provably one whole snapshot's answer.
std::string PointLine(const Snapshot& snap, const Point& q) {
  const PointAnswer a = snap.NearestSegment(q);
  if (a.segment_id < 0) return "point -1 -1 -1\n";
  return StrPrintf("point %d %d %.17g\n", a.segment_id, a.partition_id,
                   a.distance);
}

std::string RangeLine(const Snapshot& snap, const BoundingBox& box) {
  const std::vector<int64_t> counts = snap.CountByPartition(box);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  std::string line = StrPrintf("range %lld", static_cast<long long>(total));
  for (int64_t c : counts) {
    line += StrPrintf(" %lld", static_cast<long long>(c));
  }
  line += '\n';
  return line;
}

int CountLines(const std::string& text) {
  int n = 0;
  for (char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

// Shared fixture state: one network, two snapshots with different labelings
// (so a swap is observable in every partition id), both saved to disk.
struct TwoSnapshots {
  RoadNetwork network;
  std::unique_ptr<Snapshot> a;
  std::unique_ptr<Snapshot> b;
  std::string path_a;
  std::string path_b;
};

TwoSnapshots MakeTwoSnapshots(const std::string& tag) {
  auto net = SmallGridNetwork();
  RP_CHECK(net.ok());
  const int ns = net->num_segments();
  auto snap_a = Snapshot::Build(*net, ShiftedLabels(ns, 3, 0));
  auto snap_b = Snapshot::Build(*net, ShiftedLabels(ns, 3, 1));
  RP_CHECK(snap_a.ok());
  RP_CHECK(snap_b.ok());
  TwoSnapshots two{std::move(net).value(),
                   std::make_unique<Snapshot>(std::move(snap_a).value()),
                   std::make_unique<Snapshot>(std::move(snap_b).value()),
                   TempPath(tag + "_a.rpsnap"), TempPath(tag + "_b.rpsnap")};
  RP_CHECK_OK(two.a->Save(two.path_a));
  RP_CHECK_OK(two.b->Save(two.path_b));
  return two;
}

ServeRuntimeOptions IsolateOptions(int threads = 0) {
  ServeRuntimeOptions options;  // isolate is the runtime default
  options.serve.num_threads = threads;
  return options;
}

// --- Per-query fault isolation ---------------------------------------------

TEST(ServeRuntimeTest, IsolatePolicyAnswersMalformedLinesInPlace) {
  TwoSnapshots two = MakeTwoSnapshots("isolate");
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  const std::string queries =
      "point 50.0 50.0\n"
      "lookup 1 2\n"            // bad verb
      "point 1\n"               // bad arity
      "range 0 0 100\n"         // bad arity
      "point nan 0\n"           // non-finite coordinate
      "point a b\n"             // unparsable coordinate
      "range 100 0 0 100\n"     // inverted box (minx > maxx)
      "point 150.0 120.0\n";
  std::string out;
  ASSERT_TRUE(runtime.ServeBatch(queries, &out).ok());
  EXPECT_EQ(out, PointLine(*two.a, {50.0, 50.0}) +
                     "error 2 bad-verb\n"
                     "error 3 bad-arity\n"
                     "error 4 bad-arity\n"
                     "error 5 bad-coordinate\n"
                     "error 6 bad-coordinate\n"
                     "error 7 inverted-box\n" +
                     PointLine(*two.a, {150.0, 120.0}));
  EXPECT_EQ(runtime.stats().served, 2);
  EXPECT_EQ(runtime.stats().errored, 6);
  EXPECT_EQ(runtime.stats().shed, 0);
}

TEST(ServeRuntimeTest, StrictPolicyStillAbortsTheWholeBatch) {
  TwoSnapshots two = MakeTwoSnapshots("strict");
  ServeRuntimeOptions options;
  options.serve.on_malformed = MalformedQueryPolicy::kStrict;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  std::string out;
  Status st = runtime.ServeBatch("point 1 2\nbogus\n", &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
}

TEST(ServeRuntimeTest, InvertedRangeBoxesAreRejectedNotSilentlyEmpty) {
  TwoSnapshots two = MakeTwoSnapshots("inverted");

  // Strict: typed InvalidArgument naming the line (previously these were
  // accepted and answered `range 0 ...`).
  ServeOptions strict;
  for (const char* bad : {"range 10 0 0 10\n", "range 0 10 10 0\n"}) {
    std::string out;
    Status st = ServeQueries(*two.a, bad, strict, &out);
    ASSERT_FALSE(st.ok()) << bad;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("line 1"), std::string::npos);
  }

  // Degenerate-but-ordered boxes stay legal: closed bounds make
  // minx == maxx the vertical line x == minx.
  std::string out;
  ASSERT_TRUE(ServeQueries(*two.a, "range 50 0 50 300\n", strict, &out).ok());
  EXPECT_TRUE(out.rfind("range ", 0) == 0) << out;

  // Isolate: an error answer in place, later lines still served.
  ServeOptions isolate;
  isolate.on_malformed = MalformedQueryPolicy::kIsolate;
  out.clear();
  ASSERT_TRUE(
      ServeQueries(*two.a, "range 10 0 0 10\npoint 1 2\n", isolate, &out)
          .ok());
  EXPECT_EQ(out, "error 1 inverted-box\n" + PointLine(*two.a, {1.0, 2.0}));
}

// --- Admission control ------------------------------------------------------

TEST(ServeRuntimeTest, QueryBudgetShedsExcessInInputOrder) {
  TwoSnapshots two = MakeTwoSnapshots("admission");
  ServeRuntimeOptions options = IsolateOptions();
  options.serve.max_inflight_queries = 3;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  std::string queries, expected;
  for (int i = 0; i < 8; ++i) {
    const Point q{10.0 * i, 5.0 * i};
    queries += StrPrintf("point %.17g %.17g\n", q.x, q.y);
    expected += i < 3 ? PointLine(*two.a, q)
                      : StrPrintf("shed %d queue-full\n", i + 1);
  }
  std::string out;
  ASSERT_TRUE(runtime.ServeBatch(queries, &out).ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(runtime.stats().served, 3);
  EXPECT_EQ(runtime.stats().shed, 5);
}

TEST(ServeRuntimeTest, ByteBudgetShedsGreedilyInInputOrder) {
  TwoSnapshots two = MakeTwoSnapshots("bytebudget");
  // Each "point 1 2" line is 9 bytes (its newline excluded); a 20-byte
  // budget admits the first two and sheds everything after.
  ServeRuntimeOptions options = IsolateOptions();
  options.serve.max_inflight_bytes = 20;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  std::string out;
  ASSERT_TRUE(runtime.ServeBatch(
                  "point 1 2\npoint 1 2\npoint 1 2\npoint 1 2\n", &out)
                  .ok());
  const std::string answer = PointLine(*two.a, {1.0, 2.0});
  EXPECT_EQ(out, answer + answer + "shed 3 byte-budget\nshed 4 byte-budget\n");
  EXPECT_EQ(runtime.stats().served, 2);
  EXPECT_EQ(runtime.stats().shed, 2);
}

TEST(ServeRuntimeTest, InjectedOverflowShedsEveryQueryLine) {
  TwoSnapshots two = MakeTwoSnapshots("overflow");
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  FaultInjector injector(7);
  injector.Arm(FaultSite::kServeShedOverflow, 1);
  ScopedFaultInjector scoped(&injector);
  std::string out;
  ASSERT_TRUE(runtime.ServeBatch("point 1 2\nrange 0 0 9 9\n", &out).ok());
  EXPECT_EQ(out, "shed 1 queue-full\nshed 2 queue-full\n");
  EXPECT_EQ(injector.fire_count(FaultSite::kServeShedOverflow), 1);

  // Budget exhausted: the next batch serves normally.
  out.clear();
  ASSERT_TRUE(runtime.ServeBatch("point 1 2\n", &out).ok());
  EXPECT_EQ(out, PointLine(*two.a, {1.0, 2.0}));
}

TEST(ServeRuntimeTest, InjectedTimeoutShedsAdmittedQueries) {
  TwoSnapshots two = MakeTwoSnapshots("timeout");
  {
    ServeRuntime runtime(IsolateOptions());
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    FaultInjector injector(7);
    injector.Arm(FaultSite::kServeQueryTimeout, 1);
    ScopedFaultInjector scoped(&injector);
    std::string out;
    // The malformed line keeps its more specific diagnosis; admitted
    // queries shed with the deadline reason.
    ASSERT_TRUE(
        runtime.ServeBatch("point 1 2\nbogus\nrange 0 0 9 9\n", &out).ok());
    EXPECT_EQ(out, "shed 1 deadline\nerror 2 bad-verb\nshed 3 deadline\n");
    EXPECT_EQ(runtime.stats().shed, 2);
    EXPECT_EQ(runtime.stats().errored, 1);
  }
  {
    // Strict policy: the injected expiry is a typed DeadlineExceeded.
    ServeRuntimeOptions options;
    options.serve.on_malformed = MalformedQueryPolicy::kStrict;
    ServeRuntime runtime(options);
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    FaultInjector injector(7);
    injector.Arm(FaultSite::kServeQueryTimeout, 1);
    ScopedFaultInjector scoped(&injector);
    std::string out;
    Status st = runtime.ServeBatch("point 1 2\n", &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  }
}

// --- Hot snapshot swap ------------------------------------------------------

TEST(ServeRuntimeTest, SessionReloadSwapsBetweenWindows) {
  TwoSnapshots two = MakeTwoSnapshots("swap");
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  const Point q{120.0, 80.0};
  // The two labelings differ for every segment, so the swap is observable.
  ASSERT_NE(PointLine(*two.a, q), PointLine(*two.b, q));
  const std::string script = StrPrintf(
      "point %.17g %.17g\n"
      "!reload %s\n"
      "point %.17g %.17g\n"
      "!stats\n",
      q.x, q.y, two.path_b.c_str(), q.x, q.y);
  auto out = runtime.RunSession(script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const std::string expected =
      PointLine(*two.a, q) +
      StrPrintf("reload ok version=2 segments=%d\n", two.a->num_segments()) +
      PointLine(*two.b, q) +
      "stats version=2 served=2 errored=0 shed=0 reloads_ok=2 "
      "reloads_failed=0\n";
  EXPECT_EQ(*out, expected);
}

TEST(ServeRuntimeTest, ReloadOfTheServingFileLeavesAnswersUnchanged) {
  TwoSnapshots two = MakeTwoSnapshots("samefile");
  std::string queries;
  for (int i = 0; i < 12; ++i) {
    queries += StrPrintf("point %.17g %.17g\n", 17.0 * i, 11.0 * i);
  }
  queries += "range 0 0 150 150\n";

  // Reload-free reference. On clean input the strict and isolate policies
  // answer the same bytes.
  std::string plain;
  {
    ServeRuntime runtime(IsolateOptions());
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    ASSERT_TRUE(runtime.ServeBatch(queries, &plain).ok());
  }
  {
    ServeRuntimeOptions strict;
    strict.serve.on_malformed = MalformedQueryPolicy::kStrict;
    ServeRuntime runtime(strict);
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    std::string out;
    ASSERT_TRUE(runtime.ServeBatch(queries, &out).ok());
    EXPECT_EQ(out, plain);
  }

  // The same queries in three windows separated by `!reload` of the file
  // that is already serving: the query answers are the reload-free bytes.
  const std::vector<std::string> query_lines = Split(queries, '\n');
  const std::vector<std::string> answer_lines = Split(plain, '\n');
  ASSERT_EQ(query_lines.size(), answer_lines.size());
  std::string script, expected;
  int version = 1;
  for (size_t i = 0; i + 1 < query_lines.size(); ++i) {
    if (i == 4 || i == 8) {
      script += "!reload " + two.path_a + "\n";
      expected += StrPrintf("reload ok version=%d segments=%d\n", ++version,
                            two.a->num_segments());
    }
    script += query_lines[i] + "\n";
    expected += answer_lines[i] + "\n";
  }
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
  auto out = runtime.RunSession(script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, expected);
  EXPECT_EQ(runtime.snapshot_manager().diagnostics().version, 3);
  EXPECT_EQ(runtime.snapshot_manager().diagnostics().reloads_failed, 0);
}

TEST(ServeRuntimeTest, CorruptCandidateKeepsOldSnapshotServing) {
  TwoSnapshots two = MakeTwoSnapshots("corrupt");
  // Corrupt the candidate ON DISK (middle byte flipped; caught by the
  // envelope/structural validation inside Snapshot::Load).
  auto bytes = ReadFileBytes(two.path_b);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 2] ^= 0x5A;
  const std::string corrupt_path = TempPath("corrupt_candidate.rpsnap");
  ASSERT_TRUE(AtomicWriteFile(corrupt_path, mutated).ok());
  const std::string missing_path = TempPath("no_such.rpsnap");

  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
  const Point q{30.0, 170.0};
  const std::string script = StrPrintf(
      "point %.17g %.17g\n"
      "!reload %s\n"
      "point %.17g %.17g\n"
      "!reload %s\n"
      "point %.17g %.17g\n"
      "!stats\n"
      "!quiesce\n",
      q.x, q.y, corrupt_path.c_str(), q.x, q.y, missing_path.c_str(), q.x,
      q.y);
  auto out = runtime.RunSession(script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Identical answers before and after both failed reloads: the old
  // snapshot never stopped serving.
  const std::string answer_a = PointLine(*two.a, q);
  const std::string expected =
      answer_a + "reload failed corruption\n" + answer_a +
      "reload failed io-error\n" + answer_a +
      "stats version=1 served=3 errored=0 shed=0 reloads_ok=1 "
      "reloads_failed=2\n" +
      "quiesce ok\n";
  EXPECT_EQ(*out, expected);

  const SnapshotManagerDiagnostics diag =
      runtime.snapshot_manager().diagnostics();
  EXPECT_EQ(diag.version, 1);
  EXPECT_EQ(diag.reloads_failed, 2);
  EXPECT_FALSE(diag.last_error.empty());
  std::remove(corrupt_path.c_str());
}

TEST(ServeRuntimeTest, EveryByteFlipOfCandidateNeverEscapesAsASwap) {
  TwoSnapshots two = MakeTwoSnapshots("flipswap");
  SnapshotManager manager;
  ASSERT_TRUE(manager.Reload(two.path_a).ok());
  const std::shared_ptr<const Snapshot> before = manager.Current();
  auto original = ReadFileBytes(two.path_b);
  ASSERT_TRUE(original.ok());
  const std::string flip_path = TempPath("flip_candidate.rpsnap");

  int64_t failures = 0;
  for (size_t offset = 0; offset < original->size(); ++offset) {
    std::string mutated = *original;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5A);
    ASSERT_TRUE(AtomicWriteFile(flip_path, mutated).ok());
    Status st = manager.Reload(flip_path);
    ASSERT_FALSE(st.ok()) << "byte flip at offset " << offset << " swapped";
    ASSERT_EQ(st.code(), StatusCode::kCorruption)
        << "offset " << offset << ": " << st.ToString();
    ++failures;
    // The serving snapshot is untouched: same object, same version.
    ASSERT_EQ(manager.Current().get(), before.get());
  }
  const SnapshotManagerDiagnostics diag = manager.diagnostics();
  EXPECT_EQ(diag.version, 1);
  EXPECT_EQ(diag.reloads_ok, 1);
  EXPECT_EQ(diag.reloads_failed, failures);

  // The pristine candidate still swaps cleanly afterwards.
  ASSERT_TRUE(AtomicWriteFile(flip_path, *original).ok());
  ASSERT_TRUE(manager.Reload(flip_path).ok());
  EXPECT_EQ(manager.diagnostics().version, 2);
  std::remove(flip_path.c_str());
}

TEST(ServeRuntimeTest, InjectedSwapCorruptionRefusesAValidCandidate) {
  TwoSnapshots two = MakeTwoSnapshots("swapfault");
  SnapshotManager manager;
  ASSERT_TRUE(manager.Reload(two.path_a).ok());
  const std::shared_ptr<const Snapshot> before = manager.Current();

  // Armed AFTER the initial load: the site fires on the next Reload.
  FaultInjector injector(11);
  injector.Arm(FaultSite::kSnapshotSwapCorruption, 1);
  ScopedFaultInjector scoped(&injector);
  Status st = manager.Reload(two.path_b);  // valid file, injected corruption
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("swap"), std::string::npos) << st.ToString();
  EXPECT_EQ(manager.Current().get(), before.get());
  EXPECT_EQ(injector.fire_count(FaultSite::kSnapshotSwapCorruption), 1);

  // Fault budget spent: the same candidate now swaps.
  ASSERT_TRUE(manager.Reload(two.path_b).ok());
  EXPECT_EQ(manager.diagnostics().version, 2);
  EXPECT_EQ(manager.diagnostics().reloads_failed, 1);
}

// --- Health line and attached pipeline stats --------------------------------

TEST(ServeRuntimeTest, HealthLineIsDeterministicStandalone) {
  TwoSnapshots two = MakeTwoSnapshots("health");
  ServeRuntime runtime(IsolateOptions());

  // Before any snapshot: version 0, no staleness (no pipeline), no errors.
  auto out = runtime.RunSession("!health\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "health version=0 staleness=0 reloads_failed=0 "
                  "last_error=none\n");

  // After a load and a failed reload the last typed reload code surfaces.
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
  const std::string script =
      "!health\n!reload " + TempPath("health_missing.rpsnap") + "\n!health\n";
  out = runtime.RunSession(script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out,
            "health version=1 staleness=0 reloads_failed=0 last_error=none\n"
            "reload failed io-error\n"
            "health version=1 staleness=0 reloads_failed=1 "
            "last_error=io-error\n");

  // An operand makes it a malformed control line, not a different command.
  out = runtime.RunSession("!health verbose\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "error 1 bad-control\n");
}

TEST(ServeRuntimeTest, AttachedPipelineExtendsStatsAndHealth) {
  TwoSnapshots two = MakeTwoSnapshots("feed");
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());

  PipelineFeedStats feed;
  feed.intervals = 6;
  feed.published = 4;
  feed.degraded = 1;
  feed.quarantined = 1;
  feed.staleness = 2;
  feed.last_reason = "deadline-exceeded";
  runtime.AttachPipelineStats(feed);

  auto out = runtime.RunSession("!stats\n!health\n");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out,
            "stats version=1 served=0 errored=0 shed=0 reloads_ok=1 "
            "reloads_failed=0 pipeline_published=4 pipeline_degraded=1 "
            "pipeline_quarantined=1 pipeline_staleness=2\n"
            "health version=1 staleness=2 reloads_failed=0 "
            "last_error=deadline-exceeded\n");

  // The runtime keeps only the latest feed; a healthy pipeline clears the
  // reason and the health line falls back to the reload layer (clean here).
  feed.staleness = 0;
  feed.last_reason = "none";
  feed.published = 6;
  feed.degraded = 0;
  feed.quarantined = 0;
  runtime.AttachPipelineStats(feed);
  out = runtime.RunSession("!health\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "health version=1 staleness=0 reloads_failed=0 "
                  "last_error=none\n");

  // Pipeline reason outranks a reload failure; without one the reload
  // failure's typed code shows.
  ASSERT_FALSE(
      runtime.RunSession("!reload " + TempPath("feed_missing.rpsnap") + "\n")
          ->empty());
  out = runtime.RunSession("!health\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "health version=1 staleness=0 reloads_failed=1 "
                  "last_error=io-error\n");
  feed.last_reason = "churn-ceiling";
  feed.staleness = 1;
  runtime.AttachPipelineStats(feed);
  out = runtime.RunSession("!health\n");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "health version=1 staleness=1 reloads_failed=1 "
                  "last_error=churn-ceiling\n");
}

// --- Session protocol edges -------------------------------------------------

TEST(ServeRuntimeTest, MalformedControlLinesFollowThePolicy) {
  TwoSnapshots two = MakeTwoSnapshots("control");
  {
    ServeRuntime runtime(IsolateOptions());
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    auto out = runtime.RunSession("!bogus\n!reload\n!stats extra\npoint 1 2\n");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out,
              "error 1 bad-control\nerror 2 bad-control\n"
              "error 3 bad-control\n" +
                  PointLine(*two.a, {1.0, 2.0}));
    EXPECT_EQ(runtime.stats().errored, 3);
  }
  {
    ServeRuntimeOptions options;
    options.serve.on_malformed = MalformedQueryPolicy::kStrict;
    ServeRuntime runtime(options);
    ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
    auto out = runtime.RunSession("point 1 2\n!bogus\n");
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("line 2"), std::string::npos);
  }
}

TEST(ServeRuntimeTest, QueriesWithoutASnapshotAreFailedPrecondition) {
  ServeRuntime runtime(IsolateOptions());
  std::string out;
  Status st = runtime.ServeBatch("point 1 2\n", &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // Comments and blank lines alone need no snapshot.
  EXPECT_TRUE(runtime.ServeBatch("# nothing\n\n", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ServeRuntimeTest, ErrorLinesUseScriptGlobalNumbersAcrossWindows) {
  TwoSnapshots two = MakeTwoSnapshots("linenums");
  ServeRuntime runtime(IsolateOptions());
  ASSERT_TRUE(runtime.LoadSnapshot(two.path_a).ok());
  // The bad line is line 5 of the SCRIPT but line 2 of its flush window;
  // the answer must name 5.
  auto out = runtime.RunSession(
      "point 1 2\n"    // 1
      "!quiesce\n"     // 2
      "# comment\n"    // 3
      "point 3 4\n"    // 4
      "wat\n"          // 5
      "!quiesce\n");   // 6
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, PointLine(*two.a, {1.0, 2.0}) + "quiesce ok\n" +
                      PointLine(*two.a, {3.0, 4.0}) +
                      "error 5 bad-verb\nquiesce ok\n");
}

// --- Soak: interleaved queries, reloads, faults and shedding ----------------

// One deterministic soak scenario, built as {script, expected} side by side:
// six windows of queries separated by control barriers. The first `!reload`
// is refused by the injected swap-corruption site (old snapshot keeps
// serving), the second swaps A -> B, and window 4 carries more queries than
// the admission budget so its tail sheds. The expected answers are computed
// directly from snapshots A and B, so exact-output equality proves no
// answer ever came from a torn or stale snapshot and no line was dropped or
// reordered.
struct SoakCase {
  std::string script;
  std::string expected;
  int64_t served = 0;
  int64_t errored = 0;
  int64_t shed = 0;
};

constexpr int64_t kSoakQueryBudget = 6;  // per-window admission budget

SoakCase BuildSoakCase(const TwoSnapshots& two) {
  SoakCase soak;
  const Snapshot* live = two.a.get();
  int64_t version = 1, reloads_ok = 1, reloads_failed = 0;

  // Appends one query window: 4 points + 1 range + `extra_points` more
  // points + 1 malformed line. With the budget at kSoakQueryBudget, a
  // window with extra_points == 0 serves its 5 queries and errors the bad
  // line; extra_points == 4 admits one extra, sheds the remaining three,
  // and the bad line — arriving after the budget filled — sheds before it
  // is ever parsed.
  auto add_query_window = [&](int window, int extra_points) {
    int64_t admitted = 0;
    auto add_point = [&](const Point& q) {
      soak.script += StrPrintf("point %.17g %.17g\n", q.x, q.y);
      if (admitted < kSoakQueryBudget) {
        ++admitted;
        soak.expected += PointLine(*live, q);
        ++soak.served;
      } else {
        soak.expected +=
            StrPrintf("shed %d queue-full\n", CountLines(soak.script));
        ++soak.shed;
      }
    };
    for (int i = 0; i < 4; ++i) {
      add_point({37.0 * window + 11.0 * i, 23.0 * window + 7.0 * i});
    }
    const BoundingBox box{{10.0 * window, 0.0},
                          {10.0 * window + 120.0, 250.0}};
    soak.script += StrPrintf("range %.17g %.17g %.17g %.17g\n", box.min.x,
                             box.min.y, box.max.x, box.max.y);
    ++admitted;
    soak.expected += RangeLine(*live, box);
    ++soak.served;
    for (int i = 0; i < extra_points; ++i) {
      add_point({5.0 * window + 3.0 * i, 200.0 - 9.0 * i});
    }
    soak.script += "point oops\n";
    if (admitted < kSoakQueryBudget) {
      soak.expected +=
          StrPrintf("error %d bad-arity\n", CountLines(soak.script));
      ++soak.errored;
    } else {
      soak.expected +=
          StrPrintf("shed %d queue-full\n", CountLines(soak.script));
      ++soak.shed;
    }
  };
  auto add_stats = [&] {
    soak.script += "!stats\n";
    soak.expected += StrPrintf(
        "stats version=%lld served=%lld errored=%lld shed=%lld "
        "reloads_ok=%lld reloads_failed=%lld\n",
        static_cast<long long>(version), static_cast<long long>(soak.served),
        static_cast<long long>(soak.errored),
        static_cast<long long>(soak.shed),
        static_cast<long long>(reloads_ok),
        static_cast<long long>(reloads_failed));
  };

  for (int window = 0; window < 6; ++window) {
    add_query_window(window, window == 4 ? 4 : 0);
    switch (window) {
      case 0:
        // Injected swap corruption refuses the (valid) candidate.
        soak.script += StrPrintf("!reload %s\n", two.path_b.c_str());
        soak.expected += "reload failed corruption\n";
        ++reloads_failed;
        break;
      case 1:
        soak.script += StrPrintf("!reload %s\n", two.path_b.c_str());
        ++version;
        ++reloads_ok;
        soak.expected += StrPrintf("reload ok version=%lld segments=%d\n",
                                   static_cast<long long>(version),
                                   two.b->num_segments());
        live = two.b.get();
        break;
      case 2:
        add_stats();
        break;
      case 3:
      case 4:
        soak.script += "!quiesce\n";
        soak.expected += "quiesce ok\n";
        break;
      default:
        break;
    }
  }
  add_stats();
  return soak;
}

TEST(ServeRuntimeSoakTest, InterleavedFaultsNeverTearDropOrReorder) {
  TwoSnapshots two = MakeTwoSnapshots("soak");
  const SoakCase soak = BuildSoakCase(two);

  auto run = [&](int threads, int batch_size) {
    ServeRuntimeOptions options = IsolateOptions(threads);
    options.serve.batch_size = batch_size;
    options.serve.max_inflight_queries = kSoakQueryBudget;
    ServeRuntime runtime(options);
    RP_CHECK_OK(runtime.LoadSnapshot(two.path_a));
    // Armed after the initial load: the site fires on the script's FIRST
    // `!reload` and is spent by the second. Serial code queries it, so the
    // budget is claimed deterministically.
    FaultInjector injector(42);
    injector.Arm(FaultSite::kSnapshotSwapCorruption, 1);
    ScopedFaultInjector scoped(&injector);
    auto out = runtime.RunSession(soak.script);
    RP_CHECK(out.ok());
    return std::pair<std::string, ServeRuntimeStats>(*out, runtime.stats());
  };

  const auto [reference, ref_stats] = run(1, 4096);
  EXPECT_EQ(reference, soak.expected);
  EXPECT_EQ(ref_stats.served, soak.served);
  EXPECT_EQ(ref_stats.errored, soak.errored);
  EXPECT_EQ(ref_stats.shed, soak.shed);

  // Byte-identical for every thread count and batch size, stats exact.
  for (int threads : {2, 5, 8}) {
    for (int batch_size : {1, 3, 4096}) {
      const auto [out, stats] = run(threads, batch_size);
      EXPECT_EQ(out, reference)
          << "threads=" << threads << " batch=" << batch_size;
      EXPECT_EQ(stats.served, ref_stats.served);
      EXPECT_EQ(stats.errored, ref_stats.errored);
      EXPECT_EQ(stats.shed, ref_stats.shed);
    }
  }

  // No dropped answers: every non-blank, non-comment script line produced
  // exactly one answer line.
  int script_payload_lines = 0;
  for (const std::string& line : Split(soak.script, '\n')) {
    std::string_view t = Trim(line);
    if (!t.empty() && t[0] != '#') ++script_payload_lines;
  }
  EXPECT_EQ(CountLines(reference), script_payload_lines);
}

}  // namespace
}  // namespace roadpart
