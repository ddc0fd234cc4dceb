#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace ramr::env {

namespace {

// Lower-cases ASCII in place; knob values like "TRUE"/"True" are accepted.
std::string to_lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

std::optional<std::string> get(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

std::uint64_t get_uint(const std::string& name, std::uint64_t fallback) {
  auto raw = get(name);
  return raw ? parse_uint(name, *raw) : fallback;
}

bool get_bool(const std::string& name, bool fallback) {
  auto raw = get(name);
  return raw ? parse_bool(name, *raw) : fallback;
}

std::uint64_t parse_uint(const std::string& name, const std::string& raw) {
  // strtoull skips leading whitespace and then negates a '-': " -1" would
  // parse as 2^64 - 1.
  const std::size_t first = raw.find_first_not_of(" \t\n\v\f\r");
  if (first != std::string::npos && raw[first] == '-') {
    throw ConfigError("env knob " + name + "='" + raw +
                      "' must be non-negative");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (errno == ERANGE || end == raw.c_str() || *end != '\0') {
    throw ConfigError("env knob " + name + "='" + raw +
                      "' is not a valid unsigned integer");
  }
  return static_cast<std::uint64_t>(value);
}

bool parse_bool(const std::string& name, const std::string& raw) {
  const std::string v = to_lower(raw);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw ConfigError("env knob " + name + "='" + raw +
                    "' is not a valid boolean");
}

ScopedOverride::ScopedOverride(const std::string& name,
                               const std::string& value)
    : name_(name), previous_(get(name)) {
  ::setenv(name.c_str(), value.c_str(), /*overwrite=*/1);
}

ScopedOverride::~ScopedOverride() {
  if (previous_) {
    ::setenv(name_.c_str(), previous_->c_str(), 1);
  } else {
    ::unsetenv(name_.c_str());
  }
}

}  // namespace ramr::env
