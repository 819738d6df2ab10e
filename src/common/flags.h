#ifndef ROADPART_COMMON_FLAGS_H_
#define ROADPART_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace roadpart {

/// Minimal command-line parser for the CLI tools: positional arguments plus
/// `--name=value` / `--name value` / boolean `--name` options.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Unknown flags are kept and reported by
  /// UnknownFlags() so tools can reject typos. Flags listed in `bool_flags`
  /// are value-less: a bare `--flag` never consumes the following token
  /// (`--flag=true` stays accepted).
  static Result<FlagParser> Parse(
      int argc, const char* const* argv,
      const std::vector<std::string>& known_flags,
      const std::vector<std::string>& bool_flags = {});

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// String value or fallback.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Integer value or fallback; malformed values return an error.
  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const;

  /// GetInt, additionally requiring min <= value <= max: a value outside
  /// is an InvalidArgument naming the flag, never a silent narrowing.
  Result<int64_t> GetIntInRange(const std::string& name, int64_t fallback,
                                int64_t min, int64_t max) const;

  /// Double value or fallback; malformed values return an error.
  Result<double> GetDouble(const std::string& name, double fallback) const;

  /// Boolean: present without value (or "true"/"1") = true.
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace roadpart

#endif  // ROADPART_COMMON_FLAGS_H_
