#ifndef ROADPART_COMMON_DURABLE_IO_H_
#define ROADPART_COMMON_DURABLE_IO_H_

/// Crash-safe artifact I/O.
///
/// Every file the library persists (networks, supergraphs, snapshot series,
/// partitions, checkpoints) flows through two primitives:
///
///  - AtomicFileWriter: write `path.tmp.<pid>` -> flush -> fsync -> checked
///    close -> rename(tmp, path). A crash at any point leaves either the old
///    file or no file — never a torn one. Every step returns a Status (a
///    full-disk ENOSPC surfacing only at close/fsync is an error here, not a
///    silent success).
///
///  - A checksummed artifact envelope: WriteArtifact brackets a text payload
///    between a header line and a footer line carrying the format name,
///    format version, payload length and an FNV-1a-64 checksum. Both lines
///    start with '#' so legacy/foreign parsers treat them as comments.
///    ReadArtifact verifies the envelope and returns the payload, or a typed
///    Status::Corruption for torn / truncated / bit-flipped files. Because
///    the envelope is marked at BOTH ends, a single corrupted byte can
///    disguise at most one marker — the other still forces strict
///    verification, so one-byte corruption of a saved artifact is always
///    detected (FNV-1a with an odd multiplier provably changes under any
///    single-byte substitution).
///
/// Transient-fault sites wrap their I/O in RetryTransientIO: bounded
/// attempts with deterministic exponential backoff whose jitter comes from a
/// seeded common/rng stream and whose sleeping is injected — no wall-time
/// nondeterminism enters the library.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace roadpart {

// --- Checksums and bit-exact number round-trips -----------------------------

inline constexpr uint64_t kFnv1a64Basis = 1469598103934665603ULL;

/// FNV-1a 64-bit over raw bytes. Chainable via `basis`.
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t basis = kFnv1a64Basis);
uint64_t Fnv1a64(std::string_view data, uint64_t basis = kFnv1a64Basis);

/// IEEE-754 bit pattern of `value` as 16 lowercase hex digits: text that
/// round-trips doubles *bit-exactly* (read back by LineCursor::DoubleField;
/// resumed state must reproduce computed values, not decimal approximations).
std::string DoubleToBitsHex(double value);

/// `value` as 16 lowercase hex digits, and back (checksums, fingerprints).
std::string Uint64ToHex(uint64_t value);
Result<uint64_t> Uint64FromHex(std::string_view hex);

// --- Deterministic bounded retry --------------------------------------------

/// Retry policy for transient I/O faults. Backoff for attempt i is
/// base_delay_seconds * multiplier^i, scaled by a jitter factor drawn
/// deterministically from `seed` — two policies with equal seeds produce
/// equal delay sequences.
struct RetryOptions {
  int max_attempts = 1;  ///< total tries; 1 = no retry
  double base_delay_seconds = 0.01;
  double multiplier = 2.0;
  /// Jitter amplitude: each delay is scaled by a factor uniform in
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.25;
  uint64_t seed = 0x10aded;  ///< seeds the jitter stream (common/rng)
  /// Injected clock: called with each backoff delay. Defaults (when null) to
  /// a real sleep; tests inject a recorder to keep runs instant and to
  /// assert the deterministic schedule.
  std::function<void(double /*seconds*/)> sleep;
};

/// The deterministic backoff schedule of RetryOptions, one delay per call.
class RetryBackoff {
 public:
  explicit RetryBackoff(const RetryOptions& options);

  /// Delay to wait after the (attempt_ + 1)-th failure.
  double NextDelaySeconds();

 private:
  double base_;
  double multiplier_;
  double jitter_;
  uint64_t rng_state_;  // reseeds a common/rng draw per delay; copies are cheap
  int attempt_ = 0;
};

/// Runs `op` up to options.max_attempts times. Only kIOError is treated as
/// transient and retried (after a backoff); any other status — including
/// kCorruption, which retrying cannot fix — returns immediately.
Status RetryTransientIO(const RetryOptions& options,
                        const std::function<Status()>& op);

// --- Atomic file writes -----------------------------------------------------

/// Writes a file atomically: all bytes go to `path.tmp.<pid>`, and only a
/// fully flushed, fsynced, close-checked temp file is renamed onto `path`.
/// If the writer is destroyed before Commit(), the temp file is removed and
/// `path` is untouched. Not thread-safe; one writer per file.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Creates the temp file. Must be called (successfully) before Append.
  Status Open();

  /// Appends bytes to the temp file.
  Status Append(std::string_view data);

  /// Flush + fsync + close (each checked) + atomic rename onto the target.
  /// After an OK Commit the file is durably in place under `path`.
  Status Commit();

  /// Closes and removes the temp file; the target is untouched. Safe to call
  /// after a failed Append/Commit or not at all (the destructor aborts too).
  Status Abort();

  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  bool committed_ = false;
};

/// One-shot atomic whole-file write with bounded transient retry: each
/// attempt runs the full Open/Append/Commit cycle on a fresh temp file.
Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const RetryOptions& retry = {});

// --- Checksummed artifact envelope ------------------------------------------

/// Identity of an artifact as recorded in its envelope.
struct ArtifactInfo {
  std::string format;  ///< e.g. "supergraph"
  int version = 0;     ///< format version from the envelope
  bool enveloped = false;  ///< false for legacy/foreign files (no markers)
};

struct ArtifactReadOptions {
  /// Expected format name; "" accepts any. A well-formed envelope naming a
  /// different format is FailedPrecondition (a usage error, not corruption).
  std::string expected_format;
  /// Require the envelope. When false (the default) a file bearing neither
  /// marker is returned as-is — the legacy / hand-authored / foreign-tool
  /// path. A file bearing *either* marker is always verified strictly.
  bool require_envelope = false;
  /// Bounded retry for transient read failures (open/read errors only;
  /// corruption is never retried).
  RetryOptions retry;
};

/// Atomically writes `payload` wrapped in the checksummed envelope. The
/// payload must be text ending in '\n' (a trailing newline is added if
/// missing, and is part of the checksummed bytes). `retry` bounds transient
/// write faults.
Status WriteArtifact(const std::string& path, std::string_view format,
                     int version, std::string_view payload,
                     const RetryOptions& retry = {});

/// Reads a file written by WriteArtifact and returns its verified payload.
/// Detection logic: if neither envelope marker is present the file is
/// foreign (returned whole, unless options.require_envelope). If either
/// marker is present, the envelope must verify completely — header/footer
/// agreement, payload length, checksum — and any violation is a typed
/// Status::Corruption naming what tore. `info`, when given, receives the
/// artifact identity.
Result<std::string> ReadArtifact(const std::string& path,
                                 const ArtifactReadOptions& options = {},
                                 ArtifactInfo* info = nullptr);

/// Reads an entire file into a string (binary-exact).
Result<std::string> ReadFileBytes(const std::string& path);

// --- Tag-line payload codec -------------------------------------------------
//
// The keyed state formats (checkpoint MANIFEST + stages, "rpinc",
// "rpjournal") share one payload grammar: lines of single-space-separated
// fields led by a tag word, with optional inline tags ("region 3 valid 1").
// Integers are decimal, doubles IEEE-754 bit-pattern hex (bit-exact round
// trips), vectors a count then that many values. LineCursor decodes
// strictly: every field must be consumed and no non-empty line may follow
// the last record — a checksum vouches for bytes, not for meaning.

/// Builds a tag-line payload: Line() starts a new line, every other call
/// appends one field (or a count-prefixed vector).
class LineWriter {
 public:
  LineWriter& Line(std::string_view tag);
  LineWriter& Tag(std::string_view tag) { return Word(tag); }
  LineWriter& Word(std::string_view word);
  LineWriter& Int(int64_t value);
  LineWriter& Hex(uint64_t value);
  LineWriter& Double(double value);
  template <typename T>
  LineWriter& IntVec(const std::vector<T>& values) {
    Int(static_cast<int64_t>(values.size()));
    for (T v : values) Int(v);
    return *this;
  }
  LineWriter& DoubleVec(const std::vector<double>& values);

  /// The payload, last line terminated.
  std::string Finish();

 private:
  std::string out_;
};

/// Strict sequential decoder over a tag-line payload; every error is a
/// Corruption naming the line. A `tag` argument is an inline tag word
/// expected before the value.
class LineCursor {
 public:
  explicit LineCursor(std::string payload);

  /// Moves to the next line and checks its leading tag. The previous line
  /// must have been fully consumed.
  Status Line(std::string_view tag);

  Result<std::string> WordField(std::string_view tag = {});
  /// Decimal integer that must fit T (int or int64_t).
  template <typename T = int>
  Result<T> IntField(std::string_view tag = {});
  Result<uint64_t> HexField(std::string_view tag = {});
  Result<double> DoubleField(std::string_view tag = {});
  /// Count-prefixed vectors; the count may not exceed the fields left.
  template <typename T = int>
  Result<std::vector<T>> IntVecField(std::string_view tag = {});
  Result<std::vector<double>> DoubleVecField(std::string_view tag = {});

  /// The current line must be fully consumed and only blank lines remain.
  Status Finish();

 private:
  /// Expects the next field of the current line to be `tag`.
  Status Tag(std::string_view tag);
  Result<std::string_view> Field(std::string_view tag);
  Result<size_t> CountField(std::string_view tag);
  Status Error(const std::string& what) const;

  std::string payload_;
  size_t next_line_ = 0;  // offset of the first unread line
  // Fields of the current line as [begin, end) offsets into payload_, so a
  // moved cursor stays valid.
  std::vector<std::pair<size_t, size_t>> fields_;
  size_t field_ = 0;  // next unread field
};

/// Line readers: Line(tag), then the line's first value ("tag value ..." or
/// "tag count v0 v1 ..."); any further fields stay readable.
Result<int> ReadInt(LineCursor& cursor, std::string_view tag);
Result<double> ReadDouble(LineCursor& cursor, std::string_view tag);
template <typename T = int>
Result<std::vector<T>> ReadIntVec(LineCursor& cursor, std::string_view tag) {
  RP_RETURN_IF_ERROR(cursor.Line(tag));
  return cursor.IntVecField<T>();
}
Result<std::vector<double>> ReadDoubleVec(LineCursor& cursor,
                                          std::string_view tag);

// --- Keyed artifacts --------------------------------------------------------

/// Loads an enveloped tag-line artifact bound to one computation: verifies
/// the envelope (which must exist and name `format`), then checks that the
/// payload's first line is "<key_tag> <hex>" carrying `expected_key`. On
/// success the cursor is positioned after the key line. Typed failures let
/// each caller apply its own policy:
///   kIOError            - missing or unreadable file
///   kCorruption         - torn envelope or undecodable key line
///   kFailedPrecondition - another format, or keyed to a different
///                         graph/options
Result<LineCursor> ReadKeyedArtifact(const std::string& path,
                                     std::string_view format,
                                     std::string_view key_tag,
                                     uint64_t expected_key,
                                     const RetryOptions& retry = {});

}  // namespace roadpart

#endif  // ROADPART_COMMON_DURABLE_IO_H_
