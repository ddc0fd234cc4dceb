#include "adapt/plan_cache.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"

namespace ramr::adapt {

namespace {

// ---- a tiny scanner for the one JSON shape this cache writes --------------
//
// Grammar handled: an object whose "plans" member is an array of flat
// objects with string and non-negative-integer members. Anything outside
// that shape makes parse() return false, which the cache maps to "corrupt,
// treat as empty". Tolerant of whitespace and member order; not a general
// JSON parser and not meant to be one.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  bool parse(std::vector<std::pair<std::string, engine::PlanInfo>>& out) {
    skip_ws();
    if (!consume('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) return true;
      if (!first && !consume(',')) return false;
      skip_ws();
      first = false;
      std::string key;
      if (!read_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (key == "plans") {
        if (!read_plans(out)) return false;
      } else {
        if (!skip_scalar()) return false;
      }
    }
  }

 private:
  bool read_plans(std::vector<std::pair<std::string, engine::PlanInfo>>& out) {
    if (!consume('[')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (consume(']')) return true;
      if (!first && !consume(',')) return false;
      skip_ws();
      first = false;
      std::string cache_key;
      engine::PlanInfo plan;
      if (!read_plan_object(cache_key, plan)) return false;
      if (cache_key.empty() || plan.strategy.empty()) return false;
      out.emplace_back(std::move(cache_key), std::move(plan));
    }
  }

  bool read_plan_object(std::string& cache_key, engine::PlanInfo& plan) {
    if (!consume('{')) return false;
    bool first = true;
    while (true) {
      skip_ws();
      if (consume('}')) return true;
      if (!first && !consume(',')) return false;
      skip_ws();
      first = false;
      std::string key;
      if (!read_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (key == "key") {
        if (!read_string(cache_key)) return false;
      } else if (key == "strategy") {
        if (!read_string(plan.strategy)) return false;
      } else if (key == "pin_policy") {
        if (!read_string(plan.pin_policy)) return false;
      } else if (key == "ratio") {
        if (!read_uint(plan.ratio)) return false;
      } else if (key == "batch_size") {
        if (!read_uint(plan.batch_size)) return false;
      } else if (key == "queue_capacity") {
        if (!read_uint(plan.queue_capacity)) return false;
      } else {
        if (!skip_scalar()) return false;  // forward-compatible members
      }
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return false;  // \uXXXX etc. never appear in our keys
        }
      } else {
        out += c;
      }
    }
    return false;
  }

  bool read_uint(std::size_t& out) {
    if (pos_ >= s_.size() ||
        !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      return false;
    }
    std::size_t value = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      value = value * 10 + static_cast<std::size_t>(s_[pos_++] - '0');
    }
    out = value;
    return true;
  }

  // Skips one string or number value (the only scalars this schema has).
  bool skip_scalar() {
    std::string ignored;
    if (pos_ < s_.size() && s_[pos_] == '"') return read_string(ignored);
    std::size_t n = 0;
    return read_uint(n);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

PlanCache::PlanCache(std::string path) : path_(std::move(path)) {
  if (!path_.empty()) load();
}

void PlanCache::load() {
  std::ifstream in(path_);
  if (!in) return;  // missing file = empty cache, not corrupt
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.empty()) return;
  Scanner scanner(text);
  std::vector<std::pair<std::string, engine::PlanInfo>> parsed;
  if (!scanner.parse(parsed)) {
    corrupt_ = true;
    entries_.clear();
    return;
  }
  entries_ = std::move(parsed);
}

std::optional<engine::PlanInfo> PlanCache::lookup(const PlanKey& key) const {
  const std::string k = key.cache_key();
  for (const auto& [entry_key, plan] : entries_) {
    if (entry_key == k) {
      engine::PlanInfo hit = plan;
      hit.source = "cache";
      return hit;
    }
  }
  return std::nullopt;
}

void PlanCache::store(const PlanKey& key, const engine::PlanInfo& plan) {
  const std::string k = key.cache_key();
  engine::PlanInfo stored = plan;
  stored.source.clear();  // provenance is a property of a run, not a plan
  bool replaced = false;
  for (auto& [entry_key, entry_plan] : entries_) {
    if (entry_key == k) {
      entry_plan = stored;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries_.emplace_back(k, std::move(stored));
  save();
  corrupt_ = false;  // a full rewrite is the corrupt-file recovery
}

void PlanCache::save() const {
  if (path_.empty()) return;
  std::error_code ec;
  const std::filesystem::path p(path_);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    // ec intentionally ignored: open() below fails and we degrade.
  }
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return;  // advisory cache: unwritable path degrades silently
  telemetry::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "ramr-plan-cache-v1");
  w.begin_array("plans");
  for (const auto& [entry_key, plan] : entries_) {
    w.begin_object();
    w.field("key", entry_key);
    w.field("strategy", plan.strategy);
    w.field("ratio", static_cast<std::uint64_t>(plan.ratio));
    w.field("batch_size", static_cast<std::uint64_t>(plan.batch_size));
    w.field("queue_capacity",
            static_cast<std::uint64_t>(plan.queue_capacity));
    w.field("pin_policy", plan.pin_policy);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace ramr::adapt
