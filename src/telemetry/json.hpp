// Minimal streaming JSON writer for the telemetry exporters.
//
// The repo deliberately has no third-party JSON dependency; the two export
// formats we produce (Chrome trace-event arrays and the structured run
// report) only need objects, arrays, strings, bools and numbers. The writer
// tracks nesting and comma placement so exporter code reads linearly, and
// escapes strings per RFC 8259 (including control characters), so the
// output always parses with `python3 -m json.tool`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"

namespace ramr::telemetry {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // Containers. begin_object/begin_array open an anonymous container (valid
  // as a top-level value or array element); the key_ variants open a named
  // member inside the enclosing object.
  void begin_object();
  void begin_object(std::string_view key);
  void end_object();
  void begin_array();
  void begin_array(std::string_view key);
  void end_array();

  // Scalar members of the enclosing object.
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value);
  void field(std::string_view key, double value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, bool value);

  // Scalar elements of the enclosing array.
  void element(std::string_view value);
  void element(double value);
  void element(std::uint64_t value);

  // Number formatting shared with field/element: shortest round-trippable
  // form, "0" for negative zero, and finite-only (NaN/inf become null, which
  // strict JSON parsers require).
  static std::string number(double value);

 private:
  void comma();
  void key(std::string_view k);
  void write_string(std::string_view s);

  std::ostream& os_;
  std::vector<bool> needs_comma_;  // one entry per open container
};

// "effective_config": {"RAMR_MAPPERS": {"value": "2", "source": "env"}, ...}
// — one entry per knob-table row (see ramr::knob_settings).
void write_effective_config(JsonWriter& w,
                            const std::vector<KnobSetting>& knobs);

}  // namespace ramr::telemetry
