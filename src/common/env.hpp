// Typed access to environment-variable tuning knobs.
//
// The paper (Sec. III): "In RAMR, the task size can be finely tuned via a set
// of environmental variables." This header provides the typed parsing layer;
// the knob names themselves live in common/config.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ramr::env {

// Raw lookup; std::nullopt when the variable is unset or empty.
std::optional<std::string> get(const std::string& name);

// Parsed lookups. Throw ramr::ConfigError when the variable is set but does
// not parse or is out of the representable range; return `fallback` when
// the variable is unset.
std::uint64_t get_uint(const std::string& name, std::uint64_t fallback);
bool get_bool(const std::string& name, bool fallback);

// The parsers behind the lookups and the knob table: `raw` is the value of
// variable `name`, which every error message names.
std::uint64_t parse_uint(const std::string& name, const std::string& raw);
bool parse_bool(const std::string& name, const std::string& raw);

// Scoped override for tests: sets `name=value` on construction and restores
// the previous state on destruction. Not thread-safe (setenv never is).
class ScopedOverride {
 public:
  ScopedOverride(const std::string& name, const std::string& value);
  ~ScopedOverride();

  ScopedOverride(const ScopedOverride&) = delete;
  ScopedOverride& operator=(const ScopedOverride&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

}  // namespace ramr::env
