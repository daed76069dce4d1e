// Tiny "key=value" configuration map used by benches and examples to expose
// the same knobs the paper's deployment YAMLs expose (worker counts, thread
// counts, fan-outs, TTLs) without pulling in a config-file dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace helios::util {

class Config {
 public:
  Config() = default;

  // Parses "k1=v1 k2=v2" tokens, e.g. from argv. Unknown tokens are ignored
  // by callers that probe with the typed getters below. A typed getter whose
  // key is set exits the process (status 2, with a message naming the key
  // and the value) unless the whole value parses, so scale=1O,
  // requests=1e6 or quick=ture stop the run instead of running as 1, 1 and
  // false.
  static Config FromArgs(int argc, char** argv);

  void Set(const std::string& key, const std::string& value) { values_[key] = value; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string GetString(const std::string& key, const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  // Comma-separated integers, e.g. fanouts=25,10.
  std::vector<std::int64_t> GetIntList(const std::string& key,
                                       const std::vector<std::int64_t>& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace helios::util
