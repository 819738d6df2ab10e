#include "common/string_util.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace roadpart {
namespace {

// True when `s` is shaped like a plain decimal, [-] then a digit or '.':
// the only spellings handed to std::from_chars. Everything else (a leading
// '+', inf/nan) goes straight to strtod; a hex float such as 0x1p3 starts
// with a digit, but from_chars stops at the 'x', so it falls back too.
bool PlainDecimalShape(std::string_view s) {
  const size_t i = s[0] == '-' ? 1 : 0;
  return i < s.size() && ((s[i] >= '0' && s[i] <= '9') || s[i] == '.');
}

}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
          s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

size_t TokenizeSpaces(std::string_view s, std::string_view* tokens,
                      size_t capacity) {
  size_t count = 0;
  size_t start = 0;
  while (true) {
    const size_t stop = std::min(s.find(' ', start), s.size());
    const std::string_view field = Trim(s.substr(start, stop - start));
    if (!field.empty()) {
      if (count < capacity) tokens[count] = field;
      ++count;
    }
    if (stop == s.size()) return count;
    start = stop + 1;
  }
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty number");
  if (PlainDecimalShape(s)) {
    // from_chars and strtod both round correctly, so a plain decimal that
    // from_chars consumes whole is strtod's value; out-of-range input
    // (from_chars leaves ec set) takes strtod's saturation below.
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc() && ptr == s.data() + s.size()) return v;
  }
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

void AppendInt(int64_t v, std::string* out) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), v).ptr;
  out->append(buffer, static_cast<size_t>(end - buffer));
}

void AppendDouble17(double v, std::string* out) {
  char buffer[32];  // "%.17g" needs at most 24: -d.dddddddddddddddde-308
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                  std::chars_format::general, 17)
                        .ptr;
  out->append(buffer, static_cast<size_t>(end - buffer));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

}  // namespace roadpart
