#include "common/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

// Envelope markers. Both start with '#' so every line-oriented parser in the
// repo (and most foreign ones) reads them as comments; the two spellings are
// prefix-disjoint ("#! rpaf " vs "#! rpaf-end "), so one cannot be mistaken
// for the other.
constexpr char kHeaderMarker[] = "#! rpaf ";
constexpr char kFooterMarker[] = "#! rpaf-end ";
constexpr size_t kHeaderMarkerLen = sizeof(kHeaderMarker) - 1;
constexpr size_t kFooterMarkerLen = sizeof(kFooterMarker) - 1;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return StrPrintf("%s %s: %s", what.c_str(), path.c_str(),
                   std::strerror(errno));
}

void SleepForSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

// --- Checksums and bit-exact number round-trips -----------------------------

uint64_t Fnv1a64(const void* data, size_t size, uint64_t basis) {
  // For a fixed position and prefix state h, h' = (h ^ byte) * prime is
  // injective in `byte` (odd prime => multiplication mod 2^64 is invertible),
  // and every later step is a bijection of the running state — which is why
  // any single-byte substitution provably changes the digest.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = basis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t Fnv1a64(std::string_view data, uint64_t basis) {
  return Fnv1a64(data.data(), data.size(), basis);
}

std::string DoubleToBitsHex(double value) {
  return Uint64ToHex(std::bit_cast<uint64_t>(value));
}

std::string Uint64ToHex(uint64_t value) {
  return StrPrintf("%016llx", static_cast<unsigned long long>(value));
}

Result<uint64_t> Uint64FromHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) {
    return Status::InvalidArgument(
        StrPrintf("bad hex64 '%.*s'", static_cast<int>(hex.size()),
                  hex.data()));
  }
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      // No uppercase: every producer is Uint64ToHex, which emits lowercase.
      // Accepting 'A'-'F' would let a case-flipped (corrupted) checksum
      // byte parse to the same value and defeat byte-flip detection.
      return Status::InvalidArgument(
          StrPrintf("bad hex64 '%.*s'", static_cast<int>(hex.size()),
                    hex.data()));
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

// --- Deterministic bounded retry --------------------------------------------

RetryBackoff::RetryBackoff(const RetryOptions& options)
    : base_(options.base_delay_seconds),
      multiplier_(options.multiplier),
      jitter_(std::clamp(options.jitter_fraction, 0.0, 1.0)),
      rng_state_(options.seed) {}

double RetryBackoff::NextDelaySeconds() {
  double delay = base_;
  for (int i = 0; i < attempt_; ++i) delay *= multiplier_;
  ++attempt_;
  // One Rng draw per delay: equal seeds give equal schedules regardless of
  // how far apart in time the attempts land.
  Rng rng(rng_state_);
  rng_state_ = rng.Next();
  double factor = 1.0 - jitter_ + 2.0 * jitter_ * rng.NextDouble();
  return delay * factor;
}

Status RetryTransientIO(const RetryOptions& options,
                        const std::function<Status()>& op) {
  const int attempts = std::max(1, options.max_attempts);
  RetryBackoff backoff(options);
  Status status;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    status = op();
    // Only kIOError is transient. Corruption in particular is sticky: the
    // bytes on disk are wrong and will stay wrong.
    if (status.ok() || status.code() != StatusCode::kIOError) return status;
    if (attempt + 1 < attempts) {
      double delay = backoff.NextDelaySeconds();
      if (options.sleep) {
        options.sleep(delay);
      } else {
        SleepForSeconds(delay);
      }
    }
  }
  return status;
}

// --- Atomic file writes -----------------------------------------------------

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      temp_path_(StrPrintf("%s.tmp.%d", path_.c_str(),
                           static_cast<int>(::getpid()))) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) (void)Abort();
}

Status AtomicFileWriter::Open() {
  if (fd_ >= 0) return Status::FailedPrecondition("writer already open");
  fd_ = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::IOError(ErrnoMessage("cannot create temp file", temp_path_));
  }
  return Status::OK();
}

Status AtomicFileWriter::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFileWriter not open: " + path_);
  }
  size_t limit = data.size();
  bool injected_short = false;
  if (RP_FAULT_FIRES(FaultSite::kDurableShortWrite)) {
    limit = data.size() / 2;  // half the buffer lands, then the device fails
    injected_short = true;
  }
  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::write(fd_, data.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed for", temp_path_));
    }
    written += static_cast<size_t>(n);
  }
  if (injected_short) {
    return Status::IOError(
        StrPrintf("short write for %s: %zu of %zu bytes (injected fault)",
                  temp_path_.c_str(), written, data.size()));
  }
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("AtomicFileWriter not open: " + path_);
  }
  // fsync before close: this is where a full disk that buffered writes
  // "accepted" finally reports ENOSPC. Checked, never assumed.
  if (RP_FAULT_FIRES(FaultSite::kDurableFsyncFailure) ||
      ::fsync(fd_) != 0) {
    Status error =
        Status::IOError(ErrnoMessage("fsync failed for", temp_path_));
    (void)Abort();
    return error;
  }
  int close_result = ::close(fd_);
  fd_ = -1;
  if (close_result != 0) {
    Status error =
        Status::IOError(ErrnoMessage("close failed for", temp_path_));
    (void)Abort();
    return error;
  }
  if (RP_FAULT_FIRES(FaultSite::kDurableRenameFailure) ||
      std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    Status error = Status::IOError(
        StrPrintf("rename %s -> %s failed: %s", temp_path_.c_str(),
                  path_.c_str(), std::strerror(errno)));
    (void)Abort();
    return error;
  }
  committed_ = true;
  // Durability of the rename itself needs the directory entry flushed.
  // Best-effort when the directory cannot be opened (e.g. bare filename in
  // a cwd we cannot re-open), but a failing fsync on an opened directory is
  // a real error.
  size_t slash = path_.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path_.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    int sync_result = ::fsync(dir_fd);
    int dir_close = ::close(dir_fd);
    if (sync_result != 0 || dir_close != 0) {
      return Status::IOError(ErrnoMessage("directory fsync failed for", dir));
    }
  }
  return Status::OK();
}

Status AtomicFileWriter::Abort() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (!committed_) (void)::unlink(temp_path_.c_str());
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const RetryOptions& retry) {
  return RetryTransientIO(retry, [&]() -> Status {
    AtomicFileWriter writer(path);
    RP_RETURN_IF_ERROR(writer.Open());
    Status status = writer.Append(contents);
    if (status.ok()) status = writer.Commit();
    if (!status.ok()) (void)writer.Abort();
    return status;
  });
}

// --- Checksummed artifact envelope ------------------------------------------

Status WriteArtifact(const std::string& path, std::string_view format,
                     int version, std::string_view payload,
                     const RetryOptions& retry) {
  if (format.empty() || format.find(' ') != std::string_view::npos ||
      format.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument("artifact format must be a single word");
  }
  std::string body(payload);
  if (body.empty() || body.back() != '\n') body.push_back('\n');
  const uint64_t checksum = Fnv1a64(body);
  if (RP_FAULT_FIRES(FaultSite::kDurableChecksumCorruption)) {
    // Flip one payload byte *after* checksumming: the file lands exactly as
    // torn as a device-level bit flip would leave it.
    if (FaultInjector* injector = GlobalFaultInjector()) {
      std::vector<int> picked =
          injector->PickIndices(static_cast<int>(body.size()), 1);
      if (!picked.empty()) body[picked[0]] ^= 0x01;
    }
  }
  std::string file;
  file.reserve(body.size() + 128);
  file += kHeaderMarker;
  file += format;
  file += StrPrintf(" v%d\n", version);
  file += body;
  file += kFooterMarker;
  file += format;
  file += StrPrintf(" v%d len=%zu fnv=%s\n", version, body.size(),
                    Uint64ToHex(checksum).c_str());
  return AtomicWriteFile(path, file, retry);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  std::string out;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, n);
  }
  const bool read_error = std::ferror(file) != 0;
  (void)std::fclose(file);
  if (read_error) {
    return Status::IOError(ErrnoMessage("read failed for", path));
  }
  return out;
}

namespace {

struct EnvelopeFields {
  std::string format;
  int version = 0;
  uint64_t length = 0;   // footer only
  uint64_t checksum = 0; // footer only
};

Status ParseHeaderLine(std::string_view line, EnvelopeFields* out) {
  auto fields = Split(Trim(line), ' ');
  if (fields.size() != 2 || fields[1].size() < 2 || fields[1][0] != 'v') {
    return Status::Corruption("malformed artifact header line");
  }
  auto version = ParseInt(std::string_view(fields[1]).substr(1));
  if (!version.ok()) {
    return Status::Corruption("malformed artifact header version");
  }
  out->format = fields[0];
  out->version = static_cast<int>(*version);
  return Status::OK();
}

Status ParseFooterLine(std::string_view line, EnvelopeFields* out) {
  auto fields = Split(Trim(line), ' ');
  if (fields.size() != 4 || fields[1].size() < 2 || fields[1][0] != 'v' ||
      !StartsWith(fields[2], "len=") || !StartsWith(fields[3], "fnv=")) {
    return Status::Corruption("malformed artifact footer line");
  }
  auto version = ParseInt(std::string_view(fields[1]).substr(1));
  auto length = ParseInt(std::string_view(fields[2]).substr(4));
  auto checksum = Uint64FromHex(std::string_view(fields[3]).substr(4));
  if (!version.ok() || !length.ok() || *length < 0 || !checksum.ok()) {
    return Status::Corruption("malformed artifact footer fields");
  }
  out->format = fields[0];
  out->version = static_cast<int>(*version);
  out->length = static_cast<uint64_t>(*length);
  out->checksum = *checksum;
  return Status::OK();
}

}  // namespace

Result<std::string> ReadArtifact(const std::string& path,
                                 const ArtifactReadOptions& options,
                                 ArtifactInfo* info) {
  std::string content;
  RP_RETURN_IF_ERROR(RetryTransientIO(options.retry, [&]() -> Status {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    content = std::move(bytes).value();
    return Status::OK();
  }));

  const bool header_present =
      StartsWith(content, std::string_view(kHeaderMarker, kHeaderMarkerLen));
  size_t footer_start = std::string::npos;
  if (StartsWith(content, std::string_view(kFooterMarker, kFooterMarkerLen))) {
    footer_start = 0;
  } else {
    std::string needle = std::string("\n") + kFooterMarker;
    size_t pos = content.rfind(needle);
    if (pos != std::string::npos) footer_start = pos + 1;
  }
  const bool footer_present = footer_start != std::string::npos;

  if (!header_present && !footer_present) {
    if (options.require_envelope) {
      return Status::Corruption(path +
                                ": artifact envelope missing (file is "
                                "foreign, torn, or fully overwritten)");
    }
    if (info != nullptr) *info = ArtifactInfo{};
    return content;
  }

  // At least one marker survived: the file claims to be an artifact, so the
  // whole envelope must verify. One corrupted byte can hide one marker but
  // never both.
  if (!header_present) {
    return Status::Corruption(
        path + ": artifact header missing or damaged (footer intact)");
  }
  if (!footer_present) {
    return Status::Corruption(
        path + ": artifact footer missing — file truncated or torn mid-write");
  }
  size_t header_end = content.find('\n');
  if (header_end == std::string::npos || header_end >= footer_start) {
    return Status::Corruption(path + ": artifact header line unterminated");
  }
  size_t footer_line_end = content.find('\n', footer_start);
  if (footer_line_end != std::string::npos &&
      footer_line_end + 1 != content.size()) {
    return Status::Corruption(path + ": trailing bytes after artifact footer");
  }

  EnvelopeFields header;
  EnvelopeFields footer;
  Status parsed = ParseHeaderLine(
      std::string_view(content).substr(kHeaderMarkerLen,
                                       header_end - kHeaderMarkerLen),
      &header);
  if (!parsed.ok()) return Status::Corruption(path + ": " + parsed.message());
  size_t footer_text_begin = footer_start + kFooterMarkerLen;
  size_t footer_text_end =
      footer_line_end == std::string::npos ? content.size() : footer_line_end;
  parsed = ParseFooterLine(
      std::string_view(content).substr(footer_text_begin,
                                       footer_text_end - footer_text_begin),
      &footer);
  if (!parsed.ok()) return Status::Corruption(path + ": " + parsed.message());

  if (header.format != footer.format || header.version != footer.version) {
    return Status::Corruption(
        StrPrintf("%s: artifact header (%s v%d) and footer (%s v%d) disagree",
                  path.c_str(), header.format.c_str(), header.version,
                  footer.format.c_str(), footer.version));
  }
  if (!options.expected_format.empty() &&
      header.format != options.expected_format) {
    return Status::FailedPrecondition(
        StrPrintf("%s: artifact is '%s', expected '%s'", path.c_str(),
                  header.format.c_str(), options.expected_format.c_str()));
  }
  if (footer_start < header_end + 1) {
    return Status::Corruption(path + ": artifact envelope overlaps itself");
  }
  std::string payload =
      content.substr(header_end + 1, footer_start - header_end - 1);
  if (payload.size() != footer.length) {
    return Status::Corruption(StrPrintf(
        "%s: payload length mismatch (footer says %llu bytes, file has %zu) "
        "— truncated or torn",
        path.c_str(), static_cast<unsigned long long>(footer.length),
        payload.size()));
  }
  uint64_t actual = Fnv1a64(payload);
  if (actual != footer.checksum) {
    return Status::Corruption(StrPrintf(
        "%s: checksum mismatch (footer fnv=%s, payload fnv=%s) — artifact "
        "bytes were altered after write",
        path.c_str(), Uint64ToHex(footer.checksum).c_str(),
        Uint64ToHex(actual).c_str()));
  }
  if (info != nullptr) {
    info->format = header.format;
    info->version = header.version;
    info->enveloped = true;
  }
  return payload;
}

// --- Tag-line payload codec -------------------------------------------------

LineWriter& LineWriter::Line(std::string_view tag) {
  if (!out_.empty()) out_.push_back('\n');
  out_.append(tag);
  return *this;
}

LineWriter& LineWriter::Word(std::string_view word) {
  out_.push_back(' ');
  out_.append(word);
  return *this;
}

LineWriter& LineWriter::Int(int64_t value) {
  char buffer[24];
  auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return Word(std::string_view(buffer, static_cast<size_t>(end - buffer)));
}

LineWriter& LineWriter::Hex(uint64_t value) { return Word(Uint64ToHex(value)); }

LineWriter& LineWriter::Double(double value) {
  return Word(DoubleToBitsHex(value));
}

LineWriter& LineWriter::DoubleVec(const std::vector<double>& values) {
  Int(static_cast<int64_t>(values.size()));
  for (double v : values) Double(v);
  return *this;
}

std::string LineWriter::Finish() {
  if (!out_.empty()) out_.push_back('\n');
  return std::move(out_);
}

LineCursor::LineCursor(std::string payload) : payload_(std::move(payload)) {}

Status LineCursor::Error(const std::string& what) const {
  if (fields_.empty()) return Status::Corruption("payload: " + what);
  const auto [begin, end] = fields_[0];
  return Status::Corruption("payload '" + payload_.substr(begin, end - begin) +
                            "' line: " + what);
}

Status LineCursor::Line(std::string_view tag) {
  if (field_ < fields_.size()) return Error("trailing fields");
  if (next_line_ >= payload_.size()) {
    return Status::Corruption("payload truncated before '" +
                              std::string(tag) + "' line");
  }
  const size_t end = std::min(payload_.find('\n', next_line_), payload_.size());
  fields_.clear();
  field_ = 0;
  for (size_t begin = next_line_; begin <= end;) {
    const size_t space = std::min(payload_.find(' ', begin), end);
    fields_.emplace_back(begin, space);
    begin = space + 1;
  }
  next_line_ = end + 1;
  return Tag(tag);
}

Result<std::string_view> LineCursor::Field(std::string_view tag) {
  if (!tag.empty()) RP_RETURN_IF_ERROR(Tag(tag));
  if (field_ >= fields_.size()) return Error("too few fields");
  const auto [begin, end] = fields_[field_++];
  if (begin == end) return Error("empty field");
  return std::string_view(payload_.data() + begin, end - begin);
}

Status LineCursor::Tag(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(std::string_view found, Field({}));
  if (found != tag) {
    return Error("expected '" + std::string(tag) + "', found '" +
                 std::string(found) + "'");
  }
  return Status::OK();
}

Result<std::string> LineCursor::WordField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(std::string_view field, Field(tag));
  return std::string(field);
}

template <typename T>
Result<T> LineCursor::IntField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(std::string_view field, Field(tag));
  T value = 0;
  const auto [end, error] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (error != std::errc() || end != field.data() + field.size()) {
    return Error("bad integer '" + std::string(field) + "'");
  }
  return value;
}

template Result<int> LineCursor::IntField<int>(std::string_view);
template Result<int64_t> LineCursor::IntField<int64_t>(std::string_view);

Result<uint64_t> LineCursor::HexField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(std::string_view field, Field(tag));
  // Writers always emit all 16 digits; a shorter field is a torn value.
  auto value = field.size() == 16 ? Uint64FromHex(field)
                                  : Status::Corruption("short hex");
  if (!value.ok()) return Error("bad hex '" + std::string(field) + "'");
  return *value;
}

Result<double> LineCursor::DoubleField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(uint64_t bits, HexField(tag));
  return std::bit_cast<double>(bits);
}

Result<size_t> LineCursor::CountField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(int64_t count, IntField<int64_t>(tag));
  // Bounding the count by the fields actually present keeps a corrupt
  // count from turning into a huge allocation.
  if (count < 0 || static_cast<size_t>(count) > fields_.size() - field_) {
    return Error(StrPrintf("count %lld disagrees with the fields left",
                           static_cast<long long>(count)));
  }
  return static_cast<size_t>(count);
}

template <typename T>
Result<std::vector<T>> LineCursor::IntVecField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(size_t count, CountField(tag));
  std::vector<T> values(count);
  for (T& v : values) {
    RP_ASSIGN_OR_RETURN(v, IntField<T>());
  }
  return values;
}

template Result<std::vector<int>> LineCursor::IntVecField<int>(
    std::string_view);
template Result<std::vector<int64_t>> LineCursor::IntVecField<int64_t>(
    std::string_view);

Result<std::vector<double>> LineCursor::DoubleVecField(std::string_view tag) {
  RP_ASSIGN_OR_RETURN(size_t count, CountField(tag));
  std::vector<double> values(count);
  for (double& v : values) {
    RP_ASSIGN_OR_RETURN(v, DoubleField());
  }
  return values;
}

Status LineCursor::Finish() {
  if (field_ < fields_.size()) return Error("trailing fields");
  const std::string_view rest = std::string_view(payload_).substr(
      std::min(next_line_, payload_.size()));
  if (!Trim(rest).empty()) {
    return Status::Corruption("payload: data after the last record");
  }
  return Status::OK();
}

Result<int> ReadInt(LineCursor& cursor, std::string_view tag) {
  RP_RETURN_IF_ERROR(cursor.Line(tag));
  return cursor.IntField();
}

Result<double> ReadDouble(LineCursor& cursor, std::string_view tag) {
  RP_RETURN_IF_ERROR(cursor.Line(tag));
  return cursor.DoubleField();
}

Result<std::vector<double>> ReadDoubleVec(LineCursor& cursor,
                                          std::string_view tag) {
  RP_RETURN_IF_ERROR(cursor.Line(tag));
  return cursor.DoubleVecField();
}

// --- Keyed artifacts --------------------------------------------------------

Result<LineCursor> ReadKeyedArtifact(const std::string& path,
                                     std::string_view format,
                                     std::string_view key_tag,
                                     uint64_t expected_key,
                                     const RetryOptions& retry) {
  RP_ASSIGN_OR_RETURN(
      std::string payload,
      ReadArtifact(path, {.expected_format = std::string(format),
                          .require_envelope = true,
                          .retry = retry}));
  LineCursor cursor(std::move(payload));
  Status line = cursor.Line(key_tag);
  auto key = line.ok() ? cursor.HexField() : Result<uint64_t>(line);
  if (!key.ok()) {
    return Status::Corruption(path + ": " + key.status().message());
  }
  if (*key != expected_key) {
    return Status::FailedPrecondition(StrPrintf(
        "%s: keyed to a different graph/options (%s %s, expected %s)",
        path.c_str(), std::string(key_tag).c_str(), Uint64ToHex(*key).c_str(),
        Uint64ToHex(expected_key).c_str()));
  }
  return cursor;
}

}  // namespace roadpart
