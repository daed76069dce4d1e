#include "util/config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace helios::util {

namespace {
// A value that does not parse whole is a typo, never a default: stop.
[[noreturn]] void Unparsable(const std::string& key, const std::string& value,
                             const char* type) {
  std::fprintf(stderr, "config: %s=%s is not %s\n", key.c_str(), value.c_str(), type);
  std::exit(2);
}

std::int64_t ParseInt(const std::string& key, const std::string& value,
                      const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (token.empty() || *end != '\0' || errno == ERANGE) Unparsable(key, value, "an integer");
  return v;
}
}  // namespace

Config Config::FromArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept GNU-style "--key=value" as plain "key=value".
    std::size_t start = 0;
    while (start < arg.size() && arg[start] == '-') start++;
    arg = arg.substr(start);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    config.Set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return config;
}

std::string Config::GetString(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::GetInt(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : ParseInt(key, it->second, it->second);
}

double Config::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE) Unparsable(key, value, "a number");
  return v;
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  Unparsable(key, v, "a boolean (1/true/yes or 0/false/no)");
}

std::vector<std::int64_t> Config::GetIntList(const std::string& key,
                                             const std::vector<std::int64_t>& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  // Every comma-separated token must be an integer: an empty value, an
  // empty token or a trailing comma is an error too.
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(ParseInt(key, s, s.substr(pos, comma - pos)));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace helios::util
