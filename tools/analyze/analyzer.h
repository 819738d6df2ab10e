#ifndef ROADPART_TOOLS_ANALYZE_ANALYZER_H_
#define ROADPART_TOOLS_ANALYZE_ANALYZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "tools/analyze/include_graph.h"
#include "tools/analyze/rules.h"

namespace roadpart {
namespace analyze {

struct AnalyzeOptions {
  /// Path to the layering DAG spec. Empty disables the layering and
  /// undeclared-module checks (include-of-cc and cycle detection still run).
  std::string layers_file;
  /// Path to the baseline file. Empty means no baseline: every finding is
  /// new. Each non-comment line is `rule<ws>file [justification...]`; a
  /// finding matching (rule, file) is reported but marked baselined and
  /// does not fail the run.
  std::string baseline_file;
  /// Master switch for the include-graph pass.
  bool include_graph = true;
};

struct AnalyzeReport {
  std::vector<Finding> findings;  ///< all findings, sorted (file, line, rule)
  /// Baseline entries that matched no finding — stale debt to delete.
  std::vector<std::string> stale_baseline;
  int baselined_count = 0;
  int new_count = 0;  ///< non-baselined findings; > 0 fails the run
};

/// Walks `roots` (files or directories, recursively; .h/.cc only), lexes
/// every file once, then runs the per-file rules and the include-graph
/// pass. Paths in findings come out relative to `repo_root`. Fails only on
/// I/O or spec errors — findings are data, not errors.
Result<AnalyzeReport> AnalyzeTree(const std::string& repo_root,
                                  const std::vector<std::string>& roots,
                                  const AnalyzeOptions& options);

/// Runs only the per-file (token-level) rules on one in-memory source —
/// the entry point for fixture tests.
std::vector<Finding> AnalyzeSource(
    const std::string& path, const std::string& source,
    const std::vector<std::string>& status_function_names);

/// Grep-friendly text report: one `file:line: [rule] message` per finding
/// (baselined ones annotated), then a summary line.
std::string FormatText(const AnalyzeReport& report);

/// Machine-readable report: {"findings": [...], "stale_baseline": [...],
/// "summary": {...}} with stable key order.
std::string FormatJson(const AnalyzeReport& report);

}  // namespace analyze
}  // namespace roadpart

#endif  // ROADPART_TOOLS_ANALYZE_ANALYZER_H_
