// Tiny key=value configuration parser shared by benches and examples, so
// every binary accepts overrides like:
//
//   bench/fig7_tradeoffs clients=5 replicas=3 seed=42
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace vdep {

// Parses `text` as one number of type T. The whole text must be the number:
// "5x", "0x2a" or "" throw std::invalid_argument("bad <what>: <text>") rather
// than read as their longest numeric prefix.
template <typename T>
[[nodiscard]] T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("bad " + what + ": " + text);
  }
  return value;
}

class Config {
 public:
  Config() = default;

  // Parses argv entries of the form key=value; entries without '=' are
  // collected as positional arguments. Throws std::invalid_argument on a
  // duplicate key.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const;
  // The numeric getters throw std::invalid_argument, naming the key, unless
  // the whole value parses as one number.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace vdep
