#ifndef ROADPART_SERVE_SERVE_LOOP_H_
#define ROADPART_SERVE_SERVE_LOOP_H_

/// Batched query loop shared by the rp_serve binary, the serving runtime
/// (serve/runtime.h) and the benches.
///
/// Query text format, one query per line ('#' starts a comment; blank lines
/// are skipped):
///
///   point <x> <y>                      nearest segment + its partition
///   range <minx> <miny> <maxx> <maxy>  per-partition segment counts in box
///
/// Tokens are separated by single spaces; each token is trimmed of
/// " \t\r\n" and empty tokens are dropped, so runs of spaces are one
/// separator while a tab inside a token (`point\t1 2`) is part of it.
/// A coordinate is accepted exactly as `strtod` in the C locale accepts the
/// whole token: a leading '+', hex floats and denormals parse, out-of-range
/// values saturate; it must then be finite, so `inf`, `nan(...)` and `1e400`
/// answer bad-coordinate. (common/string_util's ParseDouble is that grammar,
/// with a no-copy std::from_chars fast path for plain decimals.)
///
/// A `range` box must be well formed: minx <= maxx and miny <= maxy (the
/// bounds are closed, so a degenerate box with minx == maxx is legal and
/// means the vertical line x == minx). An inverted box is a malformed
/// query, NOT an empty result — silently answering `range 0 ...` would hide
/// a caller that swapped its coordinates, so it is rejected under the
/// strict policy and answered `error <line> inverted-box` under isolate.
///
/// Answer text, one line per query, in INPUT ORDER regardless of thread
/// count:
///
///   point <segment_id> <partition_id> <distance>    (-1 -1 -1 on a
///                                                    segmentless network)
///   range <total> <count_p0> <count_p1> ...
///   error <line> <reason-code>     (isolate policy only: malformed line)
///   shed <line> <reason-code>      (admission control / deadline refusal)
///
/// `<line>` is the 1-based input line (offset by first_line_number so an
/// enclosing session can report script-global line numbers) and
/// `<reason-code>` is a stable kebab-case token:
///
///   error reasons: bad-verb, bad-arity, bad-coordinate, inverted-box
///   shed reasons:  queue-full (query budget), byte-budget (byte budget),
///                  deadline (per-batch deadline expired)
///
/// Distances print as %.17g (rendered with std::to_chars(general, 17),
/// which the standard specifies to match it), so answers round-trip doubles
/// exactly and two runs are byte-comparable. A query so far out that every
/// squared distance overflows answers the smallest segment id at distance
/// `inf`. Parsing a plain-decimal line and rendering an answer allocate
/// nothing: only the parsed-query list, each batch's output buffer and its
/// reused range-count buffer grow. Parallelism: queries are cut into fixed-size
/// batches, each batch formats into its own buffer under ParallelForTasks
/// (disjoint slot writes), and buffers are joined serially — output is
/// byte-identical for every --threads value. Parsing, admission and the
/// deadline check all run in the serial phase, so which lines error or shed
/// is a pure function of the input text and options, never of the thread
/// count (the wall-clock deadline is checked once per call at the serial
/// boundary, PR-3 style; the kServeQueryTimeout fault site makes expiry
/// deterministic in tests).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/snapshot.h"

namespace roadpart {

/// What ServeQueries does with a line it cannot parse (or an inverted
/// range box).
enum class MalformedQueryPolicy {
  /// The whole call fails with a typed InvalidArgument naming the 1-based
  /// line — the historical batch-tool behavior, right for offline jobs
  /// where a malformed file means the producer is broken.
  kStrict,
  /// The bad line is answered `error <line> <reason-code>` in place and
  /// every other query is served normally — the serving-runtime default,
  /// where one corrupt client line must not kill a million-query batch.
  kIsolate,
};

struct ServeOptions {
  /// Worker threads for the batched answer loop; 0 = process default.
  int num_threads = 0;
  /// Queries per batch (one ParallelForTasks unit). The default amortizes
  /// dispatch overhead while still fanning out for large query files.
  int batch_size = 4096;
  /// Malformed-line policy. Strict by default so existing batch callers
  /// keep their behavior; the serving runtime flips this to isolate.
  MalformedQueryPolicy on_malformed = MalformedQueryPolicy::kStrict;
  /// Admission control: at most this many query lines are admitted per
  /// call (0 = unbounded). Lines beyond the budget are answered
  /// `shed <line> queue-full` instead of growing the in-flight set without
  /// bound. Admission happens in input order in the serial phase, so the
  /// admitted set is deterministic.
  int64_t max_inflight_queries = 0;
  /// Admission control: at most this many bytes of query text are admitted
  /// per call (0 = unbounded). A line that would overflow the remaining
  /// byte budget is answered `shed <line> byte-budget`; later, smaller
  /// lines may still be admitted (greedy in input order).
  int64_t max_inflight_bytes = 0;
  /// Per-batch deadline in seconds, measured from call entry (0 = none).
  /// Checked once at the serial boundary between parse/admission and the
  /// parallel dispatch — never inside the fan-out, PR-3 style. On expiry,
  /// strict fails the call DeadlineExceeded; isolate answers every
  /// *admitted* query line `shed <line> deadline` (error/shed lines keep
  /// their more specific diagnosis).
  double deadline_seconds = 0.0;
  /// 1-based line number of the first line of `queries` within an
  /// enclosing stream. Error/shed answers and strict error messages name
  /// first_line_number + (local line - 1), so a session runtime flushing
  /// windows of a larger script reports script-global line numbers.
  size_t first_line_number = 1;
};

/// Per-call counters, filled from the serial admission phase so they are
/// exact and thread-count-invariant.
struct ServeBatchStats {
  int64_t answered_point = 0;  ///< `point` answers emitted
  int64_t answered_range = 0;  ///< `range` answers emitted
  int64_t errored = 0;         ///< `error` answers (isolate policy)
  int64_t shed = 0;            ///< `shed` answers (admission / deadline)
};

/// Parses `queries` and appends one answer line per query to `*output`.
/// Under the strict policy malformed input is a typed InvalidArgument
/// naming the line; under isolate it becomes an `error` answer line.
/// `stats`, when non-null, receives this call's exact counters.
Status ServeQueries(const Snapshot& snapshot, std::string_view queries,
                    const ServeOptions& options, std::string* output,
                    ServeBatchStats* stats = nullptr);

}  // namespace roadpart

#endif  // ROADPART_SERVE_SERVE_LOOP_H_
