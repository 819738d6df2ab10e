#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recorder for the traced run. Spans are recorded by the benchmark
// around its own calls into the library's public functions; nothing inside
// the library is instrumented. Spans stay in memory and are written out once,
// at the end of the run, as Chrome trace-event JSON (Perfetto opens it).

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double NowSeconds();

/// One timed call. Spans of one op share `op`; set-up spans carry negative
/// op ids (-1 for the first set-up repetition, -2 for the second, ...).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int op = 0;

  double ms() const { return (end_s - start_s) * 1e3; }
};

/// In-memory recorder. A disabled tracer records nothing and costs one
/// branch per call, so the untraced code path can share the same calls.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Op id stamped on the spans begun from now on.
  void SetOp(int op) { op_ = op; }

  /// Opens a span nested in the innermost open one; returns its id (-1 when
  /// disabled). Spans must close in LIFO order.
  int Begin(const std::string& name);
  void End(int id);

  /// Summed duration (ms) of the spans named `name`, per op id.
  std::map<int, double> PerOpMs(const std::string& name) const;

  /// Self time per span name, summed over all spans: a span's duration minus
  /// the durations of its direct children.
  std::map<std::string, double> SelfMs() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, one
  /// track per op). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  bool enabled_;
  int op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
