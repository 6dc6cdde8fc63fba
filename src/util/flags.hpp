// Minimal command-line flag parsing for bench/example binaries.
// Supports --name=value and --name value forms plus boolean switches.
// Deliberately tiny: the harnesses only need seeds, sweep bounds and
// run-count overrides so figure benches can be scaled up to paper-exact
// sample counts or down for CI smoke runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psc::util {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (non-flag positional arguments are collected, not rejected).
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric getters parse the WHOLE value: a malformed, empty, partial
  /// ("12abc") or out-of-range value throws std::invalid_argument naming
  /// the flag and the value.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Unsigned 64-bit form, for values such as seeds that use the full range.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& name,
                                         std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Every flag name given, in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace psc::util
