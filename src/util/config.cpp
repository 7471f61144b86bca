#include "util/config.hpp"

#include <stdexcept>
#include <vector>

namespace vdep {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      cfg.positional_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(0, eq);
    if (cfg.values_.contains(key)) {
      throw std::invalid_argument("duplicate config key: " + key);
    }
    cfg.values_[key] = arg.substr(eq + 1);
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::optional<std::string> Config::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_str(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  return parse_number<std::int64_t>(*v, "integer for key " + key);
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  return parse_number<double>(*v, "number for key " + key);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("bad boolean for key " + key + ": " + *v);
}

}  // namespace vdep
