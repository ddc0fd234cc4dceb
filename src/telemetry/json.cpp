#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ramr::telemetry {

void JsonWriter::comma() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) os_ << ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::key(std::string_view k) {
  comma();
  write_string(k);
  os_ << ':';
}

void JsonWriter::write_string(std::string_view s) {
  os_ << '"';
  for (char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\r': os_ << "\\r"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

std::string JsonWriter::number(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == 0.0) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

void JsonWriter::begin_object() {
  comma();
  os_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::begin_object(std::string_view k) {
  key(k);
  os_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  needs_comma_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  comma();
  os_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::begin_array(std::string_view k) {
  key(k);
  os_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  needs_comma_.pop_back();
  os_ << ']';
}

void JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  write_string(value);
}

void JsonWriter::field(std::string_view k, const char* value) {
  field(k, std::string_view(value));
}

void JsonWriter::field(std::string_view k, double value) {
  key(k);
  os_ << number(value);
}

void JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  os_ << value;
}

void JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  os_ << value;
}

void JsonWriter::field(std::string_view k, bool value) {
  key(k);
  os_ << (value ? "true" : "false");
}

void JsonWriter::element(std::string_view value) {
  comma();
  write_string(value);
}

void JsonWriter::element(double value) {
  comma();
  os_ << number(value);
}

void JsonWriter::element(std::uint64_t value) {
  comma();
  os_ << value;
}

void write_effective_config(JsonWriter& w,
                            const std::vector<KnobSetting>& knobs) {
  w.begin_object("effective_config");
  for (const KnobSetting& k : knobs) {
    w.begin_object(k.env);
    w.field("value", k.value);
    w.field("source", k.source);
    w.end_object();
  }
  w.end_object();
}

}  // namespace ramr::telemetry
