#ifndef ROADPART_COMMON_STRING_UTIL_H_
#define ROADPART_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace roadpart {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// The token grammar of the serve protocol, without allocating: splits `s`
/// on ' ' only, Trims each field and drops the empty ones — exactly the
/// non-empty Trim(field) of Split(s, ' '). Stores the first `capacity`
/// tokens (views into `s`) in `tokens` and returns the TRUE token count,
/// which exceeds `capacity` when the line has more tokens than fit.
size_t TokenizeSpaces(std::string_view s, std::string_view* tokens,
                      size_t capacity);

/// Parses a double: exactly `strtod` in the C locale over the whole Trimmed
/// token (leading '+', hex floats, inf/infinity/nan(...) spellings; out of
/// range saturates to ±inf or 0 as strtod does); rejects trailing garbage.
/// Plain decimals take a no-copy std::from_chars fast path and allocate only
/// to build an error message; every other spelling falls back to strtod on
/// a NUL-terminated copy.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer: exactly `strtoll` base 10 over the whole
/// Trimmed token; rejects trailing garbage and values outside int64_t
/// (InvalidArgument, never a silent saturation).
Result<int64_t> ParseInt(std::string_view s);

/// Appends `v` to `out` exactly as printf's "%lld" prints it.
void AppendInt(int64_t v, std::string* out);

/// Appends `v` to `out` exactly as printf's "%.17g" prints it (which
/// round-trips every double): std::to_chars(general, 17), which the
/// standard specifies to match printf.
void AppendDouble17(double v, std::string* out);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace roadpart

#endif  // ROADPART_COMMON_STRING_UTIL_H_
