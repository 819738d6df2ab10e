#include "common/flags.h"

#include <algorithm>

#include "common/string_util.h"

namespace roadpart {

Result<FlagParser> FlagParser::Parse(
    int argc, const char* const* argv,
    const std::vector<std::string>& known_flags,
    const std::vector<std::string>& bool_flags) {
  FlagParser parser;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      parser.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // `--flag value` form: consume the next token if it is not a flag and
      // the flag is known to take a value. Declared boolean flags never
      // consume the next token (it would swallow a positional argument).
      bool is_bool = std::find(bool_flags.begin(), bool_flags.end(), name) !=
                     bool_flags.end();
      if (!is_bool && i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (std::find(known_flags.begin(), known_flags.end(), name) ==
        known_flags.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    parser.flags_[name] = value;
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

Result<int64_t> FlagParser::GetInt(const std::string& name,
                                   int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return ParseInt(it->second);
}

Result<int64_t> FlagParser::GetIntInRange(const std::string& name,
                                          int64_t fallback, int64_t min,
                                          int64_t max) const {
  RP_ASSIGN_OR_RETURN(int64_t value, GetInt(name, fallback));
  if (value < min || value > max) {
    return Status::InvalidArgument(StrPrintf(
        "--%s must be in [%lld, %lld], got %lld", name.c_str(),
        static_cast<long long>(min), static_cast<long long>(max),
        static_cast<long long>(value)));
  }
  return value;
}

Result<double> FlagParser::GetDouble(const std::string& name,
                                     double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return ParseDouble(it->second);
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1";
}

}  // namespace roadpart
