#include "util/flags.hpp"

#include <charconv>
#include <stdexcept>

namespace psc::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* kind) {
  throw std::invalid_argument("Flags: bad " + std::string(kind) + " for --" +
                              name + ": '" + value + "'");
}

template <typename T>
T parse_whole(const std::string& name, const std::string& value,
              const char* kind) {
  T parsed{};
  const char* last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, parsed);
  if (value.empty() || error != std::errc{} || end != last) {
    bad_value(name, value, kind);
  }
  return parsed;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("Flags: bare '--'");
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another flag (boolean switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::vector<std::string> Flags::names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<std::int64_t>(name, it->second, "integer");
}

std::uint64_t Flags::get_uint64(const std::string& name,
                                std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<std::uint64_t>(name, it->second, "unsigned integer");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole<double>(name, it->second, "number");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_value(name, v, "boolean");
}

}  // namespace psc::util
