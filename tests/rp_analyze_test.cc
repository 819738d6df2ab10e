// Fixture corpus for tools/analyze: the token-level lexer, every rule's
// positive/negative fixtures, the regressions the old line-oriented linter
// got wrong (literals and spliced comments leaking back into code), the
// include-graph pass (layering, cycles, .cc includes), inline suppressions,
// the baseline, and both output formats.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analyze/analyzer.h"
#include "tools/analyze/include_graph.h"
#include "tools/analyze/lexer.h"
#include "tools/analyze/rules.h"

namespace roadpart {
namespace analyze {
namespace {

namespace fs = std::filesystem;

std::vector<Finding> Analyze(const std::string& path, const std::string& source,
                         std::vector<std::string> status_fns = {}) {
  return AnalyzeSource(path, source, status_fns);
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) n += f.rule == rule ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesBasicDeclaration) {
  LexedSource lexed = Lex("int x = 42;");
  ASSERT_EQ(lexed.tokens.size(), 5u);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(lexed.tokens[1].text, "x");
  EXPECT_EQ(lexed.tokens[2].text, "=");
  EXPECT_EQ(lexed.tokens[3].text, "42");
  EXPECT_EQ(lexed.tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(lexed.tokens[4].text, ";");
}

TEST(LexerTest, SplicedIdentifierIsOneTokenWithPhysicalLines) {
  LexedSource lexed = Lex("ab\\\ncd;\nnext");
  ASSERT_GE(lexed.tokens.size(), 3u);
  EXPECT_EQ(lexed.tokens[0].text, "abcd");
  EXPECT_EQ(lexed.tokens[0].line, 1);
  EXPECT_EQ(lexed.tokens[1].text, ";");
  EXPECT_EQ(lexed.tokens[1].line, 2);  // physical line after the splice
  EXPECT_EQ(lexed.tokens[2].text, "next");
  EXPECT_EQ(lexed.tokens[2].line, 3);
}

TEST(LexerTest, StringAndCharContentsAreBlanked) {
  LexedSource lexed = Lex("const char* s = \"rand()\"; char c = 'x';");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "\"\"");
    }
    if (t.kind == TokenKind::kChar) {
      EXPECT_EQ(t.text, "''");
    }
  }
}

TEST(LexerTest, RawStringContentsAreBlanked) {
  // The pre-analyzer stripper terminated the literal at the first inner
  // quote, leaking `rand();` into code position.
  LexedSource lexed = Lex("auto s = R\"(call \"x\" rand();)\"; int y;");
  int strings = 0;
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "call");
    strings += t.kind == TokenKind::kString ? 1 : 0;
  }
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(lexed.tokens.back().text, ";");
}

TEST(LexerTest, RawStringWithDelimiterAndLiteralBackslashNewline) {
  // Inside a raw string a backslash before the newline is content, not a
  // splice; the literal still ends only at its delimiter.
  LexedSource lexed = Lex("auto s = R\"ab(x\\\ny)ab\";\nint tail;");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.back().text, ";");
  EXPECT_EQ(lexed.tokens[lexed.tokens.size() - 2].text, "tail");
  // The literal spans two physical lines, so `tail` is on line 3.
  EXPECT_EQ(lexed.tokens[lexed.tokens.size() - 2].line, 3);
}

TEST(LexerTest, SplicedLineCommentSwallowsContinuationLines) {
  LexedSource lexed = Lex("// hidden \\\nrand();\nint x;");
  ASSERT_EQ(lexed.tokens.size(), 3u);
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 3);
}

TEST(LexerTest, RecordsQuotedAndAngledIncludes) {
  LexedSource lexed =
      Lex("#include \"common/status.h\"\n#include <vector>\nint x;\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].target, "common/status.h");
  EXPECT_FALSE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[0].line, 1);
  EXPECT_EQ(lexed.includes[1].target, "vector");
  EXPECT_TRUE(lexed.includes[1].angled);
  EXPECT_EQ(lexed.includes[1].line, 2);
}

TEST(LexerTest, LessThanInCodeIsNotAnIncludePath) {
  LexedSource lexed = Lex("#include MACRO_HDR\nbool b = a < c && d > e;\n");
  EXPECT_TRUE(lexed.includes.empty());
  bool saw_lt = false;
  for (const Token& t : lexed.tokens) saw_lt |= t.text == "<";
  EXPECT_TRUE(saw_lt);
}

TEST(LexerTest, DetectsClassicIncludeGuard) {
  LexedSource lexed =
      Lex("// header comment\n#ifndef FOO_H_\n#define FOO_H_\nint x;\n"
          "#endif\n");
  EXPECT_TRUE(lexed.has_include_guard);
  EXPECT_EQ(lexed.guard_name, "FOO_H_");
  EXPECT_FALSE(lexed.has_pragma_once);
}

TEST(LexerTest, CodeBeforeIfndefIsNotAGuard) {
  LexedSource lexed = Lex("int x;\n#ifndef FOO_H_\n#define FOO_H_\n#endif\n");
  EXPECT_FALSE(lexed.has_include_guard);
}

TEST(LexerTest, MismatchedDefineIsNotAGuard) {
  LexedSource lexed = Lex("#ifndef FOO_H_\n#define BAR_H_\n#endif\n");
  EXPECT_FALSE(lexed.has_include_guard);
}

TEST(LexerTest, DetectsPragmaOnce) {
  LexedSource lexed = Lex("#pragma once\nint x;\n");
  EXPECT_TRUE(lexed.has_pragma_once);
  EXPECT_FALSE(lexed.has_include_guard);
}

TEST(LexerTest, SuppressionCoversCommentLinesAndNextLine) {
  LexedSource lexed =
      Lex("int a;\n// rp-analyze: allow(rule-a, rule-b)\nint b;\nint c;\n");
  EXPECT_TRUE(lexed.LineAllowed("rule-a", 2));
  EXPECT_TRUE(lexed.LineAllowed("rule-a", 3));
  EXPECT_TRUE(lexed.LineAllowed("rule-b", 3));
  EXPECT_FALSE(lexed.LineAllowed("rule-a", 4));
  EXPECT_FALSE(lexed.LineAllowed("rule-c", 3));
}

TEST(StripTest, PreservesShapeAndBlanksLiteralContents) {
  const std::string src = "int x = 1; // note\nconst char* s = \"hide\";\n";
  std::string out = StripCommentsAndStrings(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("note"), std::string::npos);
  EXPECT_EQ(out.find("hide"), std::string::npos);
  EXPECT_NE(out.find("int x = 1;"), std::string::npos);
  EXPECT_NE(out.find('"'), std::string::npos);  // delimiters stay

  // Escaped quotes stay inside the literal; block comments span lines.
  out = StripCommentsAndStrings("const char* s = \"a\\\"rand(\"; int x;");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
  const std::string block = "/* block\n   rand() */ int b;\nchar c = 'q';\n";
  out = StripCommentsAndStrings(block);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find('q'), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripTest, RawStringContentsDoNotLeakIntoCode) {
  const std::string src = "auto s = R\"(if \"q\" rand();)\";\nint keep;\n";
  std::string out = StripCommentsAndStrings(src);
  ASSERT_EQ(out.size(), src.size());
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
}

TEST(StripTest, BackslashContinuedLineCommentStaysAComment) {
  const std::string src = "// first \\\nrand();\nint keep;\n";
  std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule: banned-nondeterminism
// ---------------------------------------------------------------------------

TEST(NondeterminismRule, FlagsRandSrandRandomDeviceAndWallClockSeed) {
  auto findings = Analyze("src/core/a.cc",
                      "int f() { srand(time(nullptr)); return rand(); }\n"
                      "std::random_device rd;\n");
  EXPECT_EQ(CountRule(findings, "banned-nondeterminism"), 4);
  // Benches and tools are held to the same rule; NULL seeds count too.
  EXPECT_EQ(CountRule(Analyze("bench/b.cc", "srand(42);"),
                      "banned-nondeterminism"),
            1);
  EXPECT_EQ(CountRule(Analyze("tools/t.cc", "std::random_device rd;"),
                      "banned-nondeterminism"),
            1);
  EXPECT_GE(CountRule(Analyze("src/core/x.cc", "Rng r(time(NULL));"),
                      "banned-nondeterminism"),
            1);
}

TEST(NondeterminismRule, RngModuleIsExempt) {
  auto findings = Analyze("src/common/rng.cc", "int f() { return rand(); }\n");
  EXPECT_EQ(CountRule(findings, "banned-nondeterminism"), 0);
  // The sanctioned Rng and similarly named identifiers are clean anywhere.
  EXPECT_TRUE(Analyze("src/core/x.cc",
                      "Rng rng(seed); rng.NextDouble();\n"
                      "int operand = grand(1);\n"
                      "double t = time(now);\n")
                  .empty());
}

TEST(NondeterminismRule, RegressionNoFiringInsideRawStringOrComment) {
  auto findings = Analyze("src/core/a.cc",
                      "const char* s = R\"(rand(); srand(1);)\";\n"
                      "// rand() is documented here\n"
                      "/* std::random_device */\n"
                      "int x;\n");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

// ---------------------------------------------------------------------------
// Rule: print-in-library
// ---------------------------------------------------------------------------

TEST(PrintRule, FlagsPrintfFamilyAndStreamsUnderSrc) {
  auto findings = Analyze("src/core/a.cc",
                      "void f() { printf(\"x\"); std::cout << 1; }\n");
  EXPECT_EQ(CountRule(findings, "print-in-library"), 2);
  // stderr is no exception, and src/serve/ is library code too.
  EXPECT_EQ(CountRule(Analyze("src/serve/snapshot.cc",
                              "void f() { std::cerr << 1; "
                              "std::fprintf(stderr, \"bad\\n\"); }\n"),
                      "print-in-library"),
            2);
}

TEST(PrintRule, ToolsAndLoggingSinkAreExempt) {
  const std::string src = "void f() { printf(\"x\"); }\n";
  EXPECT_EQ(CountRule(Analyze("tools/foo.cc", src), "print-in-library"), 0);
  EXPECT_EQ(CountRule(Analyze("src/common/logging.cc", src), "print-in-library"),
            0);
  EXPECT_EQ(CountRule(Analyze("bench/b.cc", src), "print-in-library"), 0);
  EXPECT_EQ(CountRule(Analyze("tools/rp_serve.cc",
                              "void f() { std::fprintf(stderr, \"x\"); }\n"),
                      "print-in-library"),
            0);
  // The logging macro is the sanctioned path; snprintf formats, not prints.
  EXPECT_TRUE(Analyze("src/core/x.cc",
                      "void f() { RP_LOG(Info) << \"x\"; }\n"
                      "void g() { std::vsnprintf(out, n, fmt, args); }\n")
                  .empty());
}

TEST(PrintRule, RegressionNoFiringInsideSplicedComment) {
  auto findings = Analyze("src/core/a.cc",
                      "// debug with \\\nprintf(\"x\");\nint y;\n");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

// ---------------------------------------------------------------------------
// Rule: discarded-status
// ---------------------------------------------------------------------------

TEST(DiscardedStatusRule, FlagsBareAndMemberChainCalls) {
  auto findings = Analyze("src/core/a.cc",
                      "void f() { SaveThing(p); obj.SaveThing(q); }\n",
                      {"SaveThing"});
  EXPECT_EQ(CountRule(findings, "discarded-status"), 2);
  EXPECT_EQ(CountRule(Analyze("src/x.cc", "void f() { io::SaveThing(p, q); }\n",
                              {"SaveThing"}),
                      "discarded-status"),
            1);
}

TEST(DiscardedStatusRule, HandledCallsAreNotFlagged) {
  auto findings = Analyze("src/core/a.cc",
                      "void f() {\n"
                      "  Status s = SaveThing(p);\n"
                      "  RP_CHECK_OK(SaveThing(q));\n"
                      "  if (SaveThing(r).ok()) return;\n"
                      "  (void)SaveThing(s);\n"
                      "  Other(t);\n"  // unknown names are not guessed at
                      "  return SaveThing(u);\n"
                      "}\n",
                      {"SaveThing"});
  EXPECT_EQ(CountRule(findings, "discarded-status"), 0);
}

TEST(DiscardedStatusRule, RegressionNoFiringInsideStringLiteral) {
  auto findings = Analyze("src/core/a.cc",
                      "const char* k = \"SaveThing(p);\"; int x;\n",
                      {"SaveThing"});
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

// ---------------------------------------------------------------------------
// Rule: parallelfor-shared-mutation
// ---------------------------------------------------------------------------

TEST(ParallelForRule, FlagsCompoundAssignToRefCapture) {
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n) {\n"
      "  int total = 0;\n"
      "  ParallelFor(0, n, [&](size_t i) { total += i; });\n"
      "}\n");
  ASSERT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
  EXPECT_EQ(findings[0].line, 3);
  // Blocked bodies, increments, member fields, and the mining kappa sweep's
  // arg-max (which belongs after the join) are all shared accumulation.
  for (const char* body :
       {"ParallelForBlocked(n, 64, [&](int64_t b, int64_t e) {\n"
        "  total += Work(b, e);\n"
        "});\n",
        "ParallelFor(n, [&](int i) { ++count; });\n",
        "ParallelFor(n, [&](int i) { acc.total += w[i]; });\n",
        "ParallelForTasks(num_sweep, [&](int i) {\n"
        "  best_mcg += Score(i);\n"
        "});\n"}) {
    EXPECT_EQ(CountRule(Analyze("src/core/supergraph_miner.cc", body),
                        "parallelfor-shared-mutation"),
              1)
        << body;
  }
}

TEST(ParallelForRule, FlagsPlainAssignToRefCapture) {
  // The legacy rule only caught compound ops and growers; a plain `=` race
  // slipped through.
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n) {\n"
      "  size_t best = 0;\n"
      "  ParallelForTasks(0, n, [&](size_t i) { best = i; });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
}

TEST(ParallelForRule, FlagsContainerGrowth) {
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n, std::vector<int>& out) {\n"
      "  ParallelFor(0, n, [&](size_t i) { out.push_back(i); });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
}

TEST(ParallelForRule, PerSlotWritesAreSanctioned) {
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n, std::vector<int>& out, Matrix& m) {\n"
      "  ParallelFor(0, n, [&](size_t i) {\n"
      "    out[i] = 2 * i;\n"
      "    out[i] += 1;\n"
      "    m(i, 0) = 1.0;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
  // The supergraph-mining fast path: per-kappa slots written by index,
  // consumed serially after the join; blocked bodies writing their range.
  findings = Analyze(
      "src/core/supergraph_miner.cc",
      "ParallelForTasks(num_sweep, [&](int i) {\n"
      "  rep.kappas[i] = i + 2;\n"
      "  mcg[i] = Score(values, i + 2);\n"
      "});\n"
      "ParallelForTasks(num_shortlisted, [&](int i) {\n"
      "  sweep_status[i] = Cluster(workspace, kappas[i]);\n"
      "  evaluated[i] = 1;\n"
      "});\n"
      "ParallelForBlocked(n, 64, [&](int64_t b, int64_t e) {\n"
      "  for (int64_t i = b; i < e; ++i) sums[i] += x[i];\n"
      "});\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, BodyLocalsAndValueCapturesAreSafe) {
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n) {\n"
      "  int seed = 1;\n"
      "  ParallelFor(0, n, [=](size_t i) { int acc = seed; acc += i; });\n"
      "  ParallelFor(0, n, [seed](size_t i) { int acc = seed; acc += i; });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
  // Lambda-local accumulators and containers, flushed to an indexed slot
  // or returned through the sanctioned blocked-reduction helper.
  findings = Analyze(
      "src/core/a.cc",
      "ParallelForBlocked(n, 64, [&](int64_t b, int64_t e) {\n"
      "  double acc = 0.0;\n"
      "  for (int64_t i = b; i < e; ++i) acc += x[i];\n"
      "  partial[b / 64] = acc;\n"
      "});\n"
      "ParallelFor(n, [&](int i) {\n"
      "  std::vector<int> local;\n"
      "  local.push_back(i);\n"
      "  Consume(i, local);\n"
      "});\n"
      "double s = ParallelBlockedSum(n, 64, [&](int64_t b, int64_t e) {\n"
      "  double acc = 0.0;\n"
      "  for (int64_t i = b; i < e; ++i) acc += x[i];\n"
      "  return acc;\n"
      "});\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, RegressionNoFiringOnMutationInComment) {
  auto findings = Analyze(
      "src/core/a.cc",
      "void f(size_t n) {\n"
      "  int total = 0;\n"
      "  ParallelFor(0, n, [&](size_t i) {\n"
      "    // total += i; (documented non-example)\n"
      "    (void)total;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, ServeRuntimePerSlotAnswerJoinIsSanctioned) {
  // The serving runtime's fan-out idiom: each batch formats into a local
  // buffer, then moves it into its own slot; the serial join fixes order.
  auto findings = Analyze(
      "src/serve/serve_loop.cc",
      "void f(int num_batches, std::vector<std::string>& answers) {\n"
      "  ParallelForTasks(num_batches, [&](int b) {\n"
      "    std::string local;\n"
      "    local += \"answer\";\n"
      "    answers[b] = std::move(local);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, ServeRuntimeSharedStatsMutationIsFlagged) {
  // The anti-idiom the runtime must never regress to: tallying service
  // counters from inside the fan-out instead of the serial phase.
  auto findings = Analyze(
      "src/serve/serve_loop.cc",
      "void f(int num_batches, ServeBatchStats& stats) {\n"
      "  ParallelForTasks(num_batches, [&](int b) {\n"
      "    stats.served += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
  // Appending straight to the shared output would make the answer order
  // depend on thread scheduling.
  findings = Analyze("src/serve/serve_loop.cc",
                     "ParallelForTasks(num_batches, [&](int b) {\n"
                     "  output += RenderBatch(snapshot, b);\n"
                     "});\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
}

TEST(ParallelForRule, RepartitionPerSlotRegionOutcomeJoinIsSanctioned) {
  // The incremental repartitioner's fan-out idiom: each dirty region
  // computes a whole RegionOutcome into a local, moves it into its own
  // slot, and the serial merge phase walks the slots in region order.
  auto findings = Analyze(
      "src/core/distributed_repartition.cc",
      "void f(int dirty_count, std::vector<RegionOutcome>& outcomes) {\n"
      "  ParallelForTasks(dirty_count, [&](int slot) {\n"
      "    RegionOutcome out;\n"
      "    out.k = 2;\n"
      "    out.local.assign(4, 0);\n"
      "    outcomes[slot] = std::move(out);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, RepartitionSharedStatsFromFanOutIsFlagged) {
  // The anti-idiom for the same code: bumping refresh counters (or engine
  // warnings) from inside the fan-out instead of the serial merge.
  auto findings = Analyze(
      "src/core/distributed_repartition.cc",
      "void f(int dirty_count, RepartitionRefreshStats& stats) {\n"
      "  ParallelForTasks(dirty_count, [&](int slot) {\n"
      "    stats.warm_started += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
}

TEST(ParallelForRule, PipelinePerSlotIntervalProbeJoinIsSanctioned) {
  // The continuous-operation pipeline keeps every decision serial, but a
  // diagnostic fan-out over candidate intervals (e.g. speculative quality
  // probes) follows the same per-slot contract: each task builds a local
  // result and moves it into its own slot; the supervisor joins serially.
  auto findings = Analyze(
      "src/pipeline/controller.cc",
      "void f(int num_candidates, std::vector<ProbeResult>& probes) {\n"
      "  ParallelForTasks(num_candidates, [&](int slot) {\n"
      "    ProbeResult probe;\n"
      "    probe.ans = 0.5;\n"
      "    probes[slot] = std::move(probe);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 0);
}

TEST(ParallelForRule, PipelineSharedJournalMutationFromFanOutIsFlagged) {
  // The anti-idiom the pipeline must never regress to: appending journal
  // entries (or bumping publish counters) from inside a fan-out. Journal
  // order is the crash-resume contract; it exists only in serial code.
  auto findings = Analyze(
      "src/pipeline/controller.cc",
      "void f(int num_candidates, PipelineJournal& journal) {\n"
      "  ParallelForTasks(num_candidates, [&](int slot) {\n"
      "    journal.staleness += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "parallelfor-shared-mutation"), 1);
}

// ---------------------------------------------------------------------------
// Rule: unchecked-eigen-convergence
// ---------------------------------------------------------------------------

TEST(EigenRule, FlagsEigenvectorUseWithoutConvergenceMention) {
  auto findings =
      Analyze("src/core/a.cc", "void f(const EigenResult& r) {\n"
                           "  auto v = r.eigenvectors;\n"
                           "}\n");
  ASSERT_EQ(CountRule(findings, "unchecked-eigen-convergence"), 1);
  EXPECT_EQ(findings[0].line, 2);
  // Pointer access counts, outside src/ too.
  EXPECT_EQ(CountRule(Analyze("bench/b.cc", "auto y = eig->eigenvectors;\n"),
                      "unchecked-eigen-convergence"),
            1);
}

TEST(EigenRule, ConvergenceMentionAnywhereInFileSilencesIt) {
  auto findings =
      Analyze("src/core/a.cc", "void f(const EigenResult& r) {\n"
                           "  if (!r.converged) return;\n"
                           "  auto v = r.eigenvectors;\n"
                           "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-eigen-convergence"), 0);
  findings =
      Analyze("src/core/a.cc", "void f(const EigenResult& r) {\n"
                           "  if (r.max_residual > 1e-6) Abort();\n"
                           "  auto v = r.eigenvectors;\n"
                           "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-eigen-convergence"), 0);
}

TEST(EigenRule, LinalgInternalsAreExempt) {
  auto findings =
      Analyze("src/linalg/x.cc", "auto v = r.eigenvectors;\n");
  EXPECT_EQ(CountRule(findings, "unchecked-eigen-convergence"), 0);
}

TEST(EigenRule, RegressionCommentMentionDoesNotCountAsUse) {
  // `.eigenvectors` inside a block comment must neither fire the rule nor
  // count as a convergence consult.
  auto findings =
      Analyze("src/core/a.cc", "/* r.eigenvectors is consumed below */\nint x;\n");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
  // Only member access to the exact field name counts.
  findings = Analyze("src/core/a.cc",
                     "auto y = ExtremeEigenvectors(op, k, end, options);\n"
                     "int eigenvectors = 3;\n");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

// ---------------------------------------------------------------------------
// Rule: raw-ofstream-write
// ---------------------------------------------------------------------------

TEST(OfstreamRule, FlagsOfstreamAndFopenUnderSrc) {
  auto findings = Analyze("src/core/io.cc",
                      "void f() { std::ofstream o(p); fopen(p, m); }\n");
  EXPECT_EQ(CountRule(findings, "raw-ofstream-write"), 2);
  EXPECT_EQ(CountRule(Analyze("src/temporal/s.cc", "ofstream out(p);\n"),
                      "raw-ofstream-write"),
            1);
}

TEST(OfstreamRule, TestsAndDurableIoAreExempt) {
  const std::string src = "std::ofstream o(p);\n";
  EXPECT_EQ(CountRule(Analyze("tests/a.cc", src), "raw-ofstream-write"), 0);
  EXPECT_EQ(CountRule(Analyze("src/common/durable_io.cc", src),
                      "raw-ofstream-write"),
            0);
  EXPECT_EQ(CountRule(Analyze("tools/cli.cc", src), "raw-ofstream-write"), 0);
  EXPECT_EQ(CountRule(Analyze("bench/b.cc", src), "raw-ofstream-write"), 0);
  // The sanctioned write path and similarly named identifiers are clean.
  EXPECT_TRUE(Analyze("src/network/io.cc",
                      "AtomicFileWriter out(path);\n"
                      "int my_ofstream_count = 0;\n")
                  .empty());
}

TEST(OfstreamRule, RegressionNoFiringInsideStringOrSplicedComment) {
  auto findings = Analyze("src/core/io.cc",
                      "const char* a = \"std::ofstream\";\n"
                      "// writer uses \\\nofstream internally\n"
                      "int x;\n");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

// ---------------------------------------------------------------------------
// Rules: missing-include-guard / header-self-containment
// ---------------------------------------------------------------------------

TEST(GuardRule, FlagsHeaderWithoutGuardOrPragmaOnce) {
  auto findings = Analyze("src/core/foo.h", "int x;\n");
  ASSERT_EQ(CountRule(findings, "missing-include-guard"), 1);
  EXPECT_EQ(RuleSeverity("missing-include-guard"), Severity::kError);
}

TEST(GuardRule, GuardedOrPragmaOnceHeadersPass) {
  EXPECT_EQ(CountRule(Analyze("src/core/foo.h",
                          "#ifndef FOO_H_\n#define FOO_H_\nint x;\n#endif\n"),
                      "missing-include-guard"),
            0);
  EXPECT_EQ(CountRule(Analyze("src/core/foo.h", "#pragma once\nint x;\n"),
                      "missing-include-guard"),
            0);
  EXPECT_EQ(CountRule(Analyze("src/core/foo.cc", "int x;\n"),
                      "missing-include-guard"),
            0);
}

TEST(SelfContainmentRule, FlagsStdUseWithoutItsHeaderOncePerHeader) {
  auto findings = Analyze("src/core/foo.h",
                      "#ifndef FOO_H_\n#define FOO_H_\n"
                      "#include <vector>\n"
                      "std::string A();\n"
                      "std::string B();\n"
                      "std::vector<int> C();\n"
                      "std::pair<int, int> D();\n"
                      "#endif\n");
  // <string> and <utility> are missing; <vector> is present; one finding
  // per missing header regardless of use count.
  EXPECT_EQ(CountRule(findings, "header-self-containment"), 2);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kWarning);
  }
}

TEST(SelfContainmentRule, OnlySrcAndToolsHeadersAreChecked) {
  const std::string src =
      "#ifndef FOO_H_\n#define FOO_H_\nstd::string A();\n#endif\n";
  EXPECT_EQ(CountRule(Analyze("tests/foo.h", src), "header-self-containment"), 0);
  EXPECT_EQ(CountRule(Analyze("src/core/foo.cc", "std::string A();\n"),
                      "header-self-containment"),
            0);
  EXPECT_EQ(CountRule(Analyze("tools/analyze/foo.h", src),
                      "header-self-containment"),
            1);
}

// ---------------------------------------------------------------------------
// Inline suppressions
// ---------------------------------------------------------------------------

TEST(SuppressionTest, TrailingAllowSilencesThatRuleOnThatLine) {
  // A suppression covers its own line(s) plus the following line, so the
  // unsuppressed call sits two lines down.
  auto findings = Analyze(
      "src/core/a.cc",
      "int f() { return rand(); }  // rp-analyze: allow(banned-nondeterminism)\n"
      "\n"
      "int g() { return rand(); }\n");
  ASSERT_EQ(CountRule(findings, "banned-nondeterminism"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SuppressionTest, PrecedingLineAllowCoversNextLine) {
  auto findings = Analyze("src/core/a.cc",
                      "// rp-analyze: allow(banned-nondeterminism)\n"
                      "int f() { return rand(); }\n");
  EXPECT_EQ(CountRule(findings, "banned-nondeterminism"), 0);
}

TEST(SuppressionTest, AllowOfOtherRuleDoesNotSuppress) {
  auto findings = Analyze("src/core/a.cc",
                      "// rp-analyze: allow(print-in-library)\n"
                      "int f() { return rand(); }\n");
  EXPECT_EQ(CountRule(findings, "banned-nondeterminism"), 1);
}

// ---------------------------------------------------------------------------
// Catalog / severity / finding formatting
// ---------------------------------------------------------------------------

TEST(CatalogTest, EveryRuleHasStableIdAndSeverity) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  ASSERT_EQ(catalog.size(), 12u);
  std::vector<std::string> ids;
  for (const RuleInfo& info : catalog) ids.push_back(info.id);
  for (const char* legacy :
       {"banned-nondeterminism", "print-in-library", "discarded-status",
        "parallelfor-shared-mutation", "unchecked-eigen-convergence",
        "raw-ofstream-write"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), legacy), ids.end()) << legacy;
  }
  EXPECT_EQ(RuleSeverity("header-self-containment"), Severity::kWarning);
  EXPECT_EQ(RuleSeverity("include-cycle"), Severity::kError);
  EXPECT_EQ(RuleSeverity("no-such-rule"), Severity::kError);
  EXPECT_STREQ(SeverityName(Severity::kError), "error");
  EXPECT_STREQ(SeverityName(Severity::kWarning), "warning");
}

TEST(FindingTest, ToStringMatchesLegacyFormat) {
  Finding f{"src/a.cc", 7, "print-in-library", Severity::kError, "msg", false};
  EXPECT_EQ(f.ToString(), "src/a.cc:7: [print-in-library] msg");
  // Line numbers are physical lines of the original, comments included.
  std::vector<Finding> findings = Analyze("src/core/x.cc",
                                          "// line 1 comment\n"
                                          "/* line 2\n"
                                          "   line 3 */\n"
                                          "int v = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].ToString().rfind("src/core/x.cc:4: "
                                         "[banned-nondeterminism]",
                                         0),
            0u);
}

TEST(StatusNamesTest, CollectsStatusAndResultReturningDeclarations) {
  LexedSource lexed =
      Lex("Status Save(const std::string& p);\n"
          "Result<std::vector<int>> Load(int k);\n"
          "int NotOne();\n"
          "Result<std::map<int, int>> Nested();\n");
  std::vector<std::string> names = CollectStatusFunctionNames(lexed);
  EXPECT_EQ(names, (std::vector<std::string>{"Load", "Nested", "Save"}));
  // Constructors, forward declarations and mentions in comments are not
  // Status-returning functions.
  EXPECT_TRUE(CollectStatusFunctionNames(
                  Lex("// Returns Status Save(x) on failure.\n"
                      "class Result;\n"
                      "Result(Status s);\n"))
                  .empty());
}

// ---------------------------------------------------------------------------
// Layer spec / include graph
// ---------------------------------------------------------------------------

TEST(LayerSpecTest, ParsesModulesWildcardsAndComments) {
  auto spec = ParseLayerSpec(
      "# comment\n"
      "common:\n"
      "graph: common   # inline comment\n"
      "tools: *\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->Declared("common"));
  EXPECT_TRUE(spec->Declared("graph"));
  EXPECT_TRUE(spec->Declared("tools"));
  EXPECT_FALSE(spec->Declared("mystery"));
  EXPECT_TRUE(spec->Allows("graph", "common"));
  EXPECT_FALSE(spec->Allows("common", "graph"));
  EXPECT_TRUE(spec->Allows("graph", "graph"));  // same-module always fine
  EXPECT_TRUE(spec->Allows("tools", "graph"));  // wildcard sees everything
}

TEST(LayerSpecTest, RejectsMalformedAndCyclicSpecs) {
  EXPECT_FALSE(ParseLayerSpec("no-colon-here\n").ok());
  EXPECT_FALSE(ParseLayerSpec("a:\na: b\n").ok());          // duplicate
  EXPECT_FALSE(ParseLayerSpec("a: * b\n").ok());            // * plus deps
  EXPECT_FALSE(ParseLayerSpec("a: b\nb: a\n").ok());        // cyclic layering
  EXPECT_FALSE(ParseLayerSpec(": b\n").ok());               // empty module
}

TEST(ModuleOfTest, MapsPathsToModules) {
  EXPECT_EQ(ModuleOf("src/core/partitioner.cc"), "core");
  EXPECT_EQ(ModuleOf("src/top.h"), "src");
  EXPECT_EQ(ModuleOf("tools/analyze/lexer.h"), "tools");
  EXPECT_EQ(ModuleOf("tests/foo_test.cc"), "tests");
  EXPECT_EQ(ModuleOf("bench/bench_main.cc"), "bench");
}

TEST(IncludeGraphTest, FlagsLayeringViolationAndAllowsDeclaredEdges) {
  auto spec = ParseLayerSpec("common:\ngraph: common\n");
  ASSERT_TRUE(spec.ok());
  std::vector<IncludeGraphFile> files(2);
  files[0].path = "src/common/x.h";
  files[0].edges = {{"src/graph/y.h", 4}};  // upward include
  files[1].path = "src/graph/y.h";
  auto findings = CheckIncludeGraph(files, &*spec);
  ASSERT_EQ(CountRule(findings, "layering-violation"), 1);
  EXPECT_EQ(findings[0].file, "src/common/x.h");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(IncludeGraphTest, FlagsIncludeOfCcFile) {
  std::vector<IncludeGraphFile> files(1);
  files[0].path = "src/core/a.cc";
  files[0].cc_includes = {{"core/impl.cc", 9}};
  auto findings = CheckIncludeGraph(files, nullptr);
  ASSERT_EQ(CountRule(findings, "include-of-cc"), 1);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(IncludeGraphTest, ReportsUndeclaredModuleOnce) {
  auto spec = ParseLayerSpec("common:\n");
  ASSERT_TRUE(spec.ok());
  std::vector<IncludeGraphFile> files(2);
  files[0].path = "src/mystery/a.h";
  files[1].path = "src/mystery/b.h";
  auto findings = CheckIncludeGraph(files, &*spec);
  EXPECT_EQ(CountRule(findings, "undeclared-module"), 1);
}

TEST(IncludeGraphTest, FindsCycleOnceAnchoredAtSmallestMember) {
  std::vector<IncludeGraphFile> files(3);
  files[0].path = "src/core/a.h";
  files[0].edges = {{"src/core/b.h", 3}};
  files[1].path = "src/core/b.h";
  files[1].edges = {{"src/core/c.h", 5}};
  files[2].path = "src/core/c.h";
  files[2].edges = {{"src/core/a.h", 7}};
  auto findings = CheckIncludeGraph(files, nullptr);
  ASSERT_EQ(CountRule(findings, "include-cycle"), 1);
  EXPECT_EQ(findings[0].file, "src/core/a.h");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("src/core/a.h -> src/core/b.h"),
            std::string::npos)
      << findings[0].message;
}

TEST(IncludeGraphTest, AcyclicGraphIsClean) {
  auto spec = ParseLayerSpec("common:\ngraph: common\ncore: common graph\n");
  ASSERT_TRUE(spec.ok());
  std::vector<IncludeGraphFile> files(3);
  files[0].path = "src/common/x.h";
  files[1].path = "src/graph/y.h";
  files[1].edges = {{"src/common/x.h", 2}};
  files[2].path = "src/core/z.cc";
  files[2].edges = {{"src/graph/y.h", 2}, {"src/common/x.h", 3}};
  EXPECT_TRUE(CheckIncludeGraph(files, &*spec).empty());
}

// ---------------------------------------------------------------------------
// AnalyzeTree end-to-end over a fixture repo on disk
// ---------------------------------------------------------------------------

class AnalyzeTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "rp_analyze_fixture";
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "common");
    fs::create_directories(root_ / "src" / "graph");
    fs::create_directories(root_ / "src" / "core");
    fs::create_directories(root_ / "tools" / "analyze");
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteFixture(const std::string& rel, const std::string& text) {
    std::ofstream out(root_ / rel, std::ios::binary);
    ASSERT_TRUE(out.good()) << rel;
    out << text;
  }

  fs::path root_;
};

TEST_F(AnalyzeTreeTest, FindsLayeringCycleAndBaselinedFindings) {
  WriteFixture("tools/analyze/layers.txt",
               "common:\ngraph: common\ncore: common graph\n");
  WriteFixture("src/common/base.h",
               "#ifndef BASE_H_\n#define BASE_H_\n"
               "inline int Base() { return 1; }\n#endif\n");
  // Upward include: common may not depend on graph.
  WriteFixture("src/common/oops.h",
               "#ifndef OOPS_H_\n#define OOPS_H_\n"
               "#include \"graph/csr.h\"\n#endif\n");
  // Same violation, but explicitly suppressed inline.
  WriteFixture("src/common/oops2.h",
               "#ifndef OOPS2_H_\n#define OOPS2_H_\n"
               "#include \"graph/csr.h\"  "
               "// rp-analyze: allow(layering-violation)\n#endif\n");
  WriteFixture("src/graph/csr.h",
               "#ifndef CSR_H_\n#define CSR_H_\n"
               "#include \"common/base.h\"\n#endif\n");
  // Two-file include cycle.
  WriteFixture("src/core/a.h",
               "#ifndef A_H_\n#define A_H_\n"
               "#include \"core/b.h\"\n#endif\n");
  WriteFixture("src/core/b.h",
               "#ifndef B_H_\n#define B_H_\n"
               "#include \"core/a.h\"\n#endif\n");
  // A banned call (baselined) and an include of a .cc file (new).
  WriteFixture("src/core/bad.cc",
               "#include \"core/impl.cc\"\n"
               "int Bad() { return rand(); }\n");
  WriteFixture("baseline.txt",
               "# fixture baseline\n"
               "banned-nondeterminism src/core/bad.cc legacy seed\n"
               "print-in-library src/core/bad.cc no longer fires\n");

  AnalyzeOptions options;
  options.layers_file = (root_ / "tools/analyze/layers.txt").string();
  options.baseline_file = (root_ / "baseline.txt").string();
  auto report = AnalyzeTree(root_.string(), {(root_ / "src").string()},
                            options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(CountRule(report->findings, "layering-violation"), 1);
  EXPECT_EQ(CountRule(report->findings, "include-cycle"), 1);
  EXPECT_EQ(CountRule(report->findings, "include-of-cc"), 1);
  EXPECT_EQ(CountRule(report->findings, "banned-nondeterminism"), 1);
  EXPECT_EQ(CountRule(report->findings, "missing-include-guard"), 0);
  ASSERT_EQ(report->findings.size(), 4u) << FormatText(*report);

  // Sorted by (file, line, rule); the baselined finding is annotated but
  // still reported.
  EXPECT_EQ(report->findings[0].file, "src/common/oops.h");
  EXPECT_EQ(report->findings[1].file, "src/core/a.h");
  EXPECT_EQ(report->findings[1].rule, "include-cycle");
  for (const Finding& f : report->findings) {
    EXPECT_EQ(f.baselined, f.rule == "banned-nondeterminism")
        << f.ToString();
  }
  EXPECT_EQ(report->baselined_count, 1);
  EXPECT_EQ(report->new_count, 3);
  ASSERT_EQ(report->stale_baseline.size(), 1u);
  EXPECT_EQ(report->stale_baseline[0], "print-in-library src/core/bad.cc");
}

TEST_F(AnalyzeTreeTest, CleanTreeProducesEmptyReport) {
  WriteFixture("tools/analyze/layers.txt", "common:\ngraph: common\n");
  WriteFixture("src/common/base.h",
               "#ifndef BASE_H_\n#define BASE_H_\n"
               "inline int Base() { return 1; }\n#endif\n");
  WriteFixture("src/graph/csr.h",
               "#ifndef CSR_H_\n#define CSR_H_\n"
               "#include \"common/base.h\"\n#endif\n");
  AnalyzeOptions options;
  options.layers_file = (root_ / "tools/analyze/layers.txt").string();
  auto report = AnalyzeTree(root_.string(), {(root_ / "src").string()},
                            options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->findings.empty()) << FormatText(*report);
  EXPECT_EQ(report->new_count, 0);
  std::string text = FormatText(*report);
  EXPECT_NE(text.find("0 new"), std::string::npos) << text;
}

TEST_F(AnalyzeTreeTest, NoLayersFileSkipsLayeringButKeepsCycles) {
  WriteFixture("src/core/a.h",
               "#ifndef A_H_\n#define A_H_\n"
               "#include \"core/b.h\"\n#endif\n");
  WriteFixture("src/core/b.h",
               "#ifndef B_H_\n#define B_H_\n"
               "#include \"core/a.h\"\n#endif\n");
  AnalyzeOptions options;  // no layers_file
  auto report = AnalyzeTree(root_.string(), {(root_ / "src").string()},
                            options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(CountRule(report->findings, "include-cycle"), 1);
  EXPECT_EQ(CountRule(report->findings, "layering-violation"), 0);
  EXPECT_EQ(CountRule(report->findings, "undeclared-module"), 0);
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

AnalyzeReport TwoFindingReport() {
  AnalyzeReport report;
  report.findings.push_back({"src/a.cc", 3, "print-in-library",
                             Severity::kError, "printf() in library code",
                             false});
  report.findings.push_back({"src/b.h", 1, "header-self-containment",
                             Severity::kWarning,
                             "uses std::string \"quoted\"", true});
  report.stale_baseline.push_back("raw-ofstream-write src/gone.cc");
  report.new_count = 1;
  report.baselined_count = 1;
  return report;
}

TEST(FormatTest, TextReportListsFindingsBaselineMarksAndSummary) {
  std::string text = FormatText(TwoFindingReport());
  EXPECT_NE(text.find("src/a.cc:3: [print-in-library] printf() in library "
                      "code\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("(baselined)"), std::string::npos);
  EXPECT_NE(text.find("stale baseline entry"), std::string::npos);
  EXPECT_NE(text.find("2 finding(s): 1 new, 1 baselined, 1 stale"),
            std::string::npos)
      << text;
}

TEST(FormatTest, JsonReportHasStableKeysAndEscaping) {
  std::string json = FormatJson(TwoFindingReport());
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(json.find("\"baselined\": true"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stale_baseline\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\": {\"total\": 2, \"new\": 1, "
                      "\"baselined\": 1, \"stale_baseline\": 1}"),
            std::string::npos)
      << json;
}

TEST(FormatTest, EmptyReportJsonIsWellFormedWithEmptyArrays) {
  AnalyzeReport report;
  std::string json = FormatJson(report);
  EXPECT_NE(json.find("\"findings\": [],"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\": 0"), std::string::npos);
}

}  // namespace
}  // namespace analyze
}  // namespace roadpart
