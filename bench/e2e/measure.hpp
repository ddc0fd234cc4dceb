// Measurement plumbing of the end-to-end harness: sample statistics, the
// result document, output checks against the serial references, and the
// in-memory span recorder behind the traced run.
//
// Everything here sits outside the program under test: spans are recorded
// by the harness around its own calls into the runtime, never inside it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/timing.hpp"
#include "telemetry/json.hpp"

namespace e2e {

using ramr::Clock;
using ramr::seconds_between;

// Linear-interpolated quantile, q in [0, 1] (numpy's default definition).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- result document ---------------------------------------------------------

// What one harness process prints as its last line: every metric with its
// unit and direction, job accounting, and the configuration that produced
// the numbers.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              const char* better) {
    metrics_[name] = Metric{value, unit, better};
  }
  void info(const std::string& key, std::string value) {
    info_[key] = std::move(value);
  }
  // One job ran; `ok` is false for an exception, a rejection or an output
  // that does not match the reference.
  void job(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::uint64_t failed() const { return failed_; }

  void write(std::ostream& os) const {
    ramr::telemetry::JsonWriter w(os);
    w.begin_object();
    w.field("attempted", attempted_);
    w.field("failed", failed_);
    w.field("correct", failed_ == 0);
    w.begin_object("metrics");
    for (const auto& [name, m] : metrics_) {
      w.begin_object(name);
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.field("better", m.better);
      w.end_object();
    }
    w.end_object();
    w.begin_object("info");
    for (const auto& [key, value] : info_) w.field(key, value);
    w.end_object();
    w.end_object();
    os << '\n';
  }

 private:
  struct Metric {
    double value;
    const char* unit;
    const char* better;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- output checks -------------------------------------------------------------

// Covariance sums may differ from the serial reference in the last ulps
// (combine order); counts must match exactly.
inline bool close_enough(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}
inline bool close_enough(std::uint64_t got, std::uint64_t want) {
  return got == want;
}

// Compares key-sorted runtime output with a key-sorted reference. Count
// apps may report never-hit keys as zero (the atomic global container
// holds every bin), so zero counts are skipped on both sides.
template <typename GotK, typename RefK, typename V>
bool matches(const std::vector<std::pair<GotK, V>>& got,
             const std::vector<std::pair<RefK, V>>& ref) {
  std::size_t i = 0;
  std::size_t j = 0;
  const auto skip_zero = [](const auto& v, std::size_t& k) {
    if constexpr (std::is_integral_v<V>) {
      while (k < v.size() && v[k].second == 0) ++k;
    }
  };
  for (;;) {
    skip_zero(got, i);
    skip_zero(ref, j);
    if (i == got.size() || j == ref.size()) {
      return i == got.size() && j == ref.size();
    }
    if (!(got[i].first == ref[j].first) ||
        !close_enough(got[i].second, ref[j].second)) {
      return false;
    }
    ++i;
    ++j;
  }
}

// ---- spans ---------------------------------------------------------------------

// In-memory spans of the traced run, written out as Chrome trace-event
// JSON (Perfetto loads it) when the workload ends. A span's self time is
// its duration minus the part its children cover.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Returns the span's index (the parent handle for its children), or -1
  // when tracing is off. `lane` groups spans into one Perfetto track.
  int add(std::string name, Clock::time_point t0, Clock::time_point t1,
          int parent, int lane, std::uint64_t job = 0,
          std::string runtime = {}) {
    return add_at(std::move(name), at(t0), at(t1), parent, lane, job,
                  std::move(runtime));
  }

  // Same, with times in seconds since the recorder's epoch (for spans
  // rebuilt from reported durations rather than observed instants).
  int add_at(std::string name, double t0, double t1, int parent, int lane,
             std::uint64_t job = 0, std::string runtime = {}) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), t0, t1, parent, lane, job,
                          std::move(runtime)});
    return static_cast<int>(spans_.size() - 1);
  }

  double start(int index) const { return spans_[index].t0; }

  // Ends a span opened with an end time not yet known (the workload span).
  void close(int index, Clock::time_point t1) {
    if (index >= 0) spans_[index].t1 = at(t1);
  }

  void name_lane(int lane, std::string name) {
    lane_names_[lane] = std::move(name);
  }

  // Self seconds of every span, grouped by span name.
  std::map<std::string, std::vector<double>> self_seconds() const {
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(int(i));
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> cover;
      for (int c : children[i]) {
        const double lo = std::max(s.t0, spans_[c].t0);
        const double hi = std::min(s.t1, spans_[c].t1);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      double end = s.t0;
      for (const auto& [lo, hi] : cover) {
        if (hi <= end) continue;
        covered += hi - std::max(lo, end);
        end = hi;
      }
      out[s.name].push_back((s.t1 - s.t0) - covered);
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace " + path);
    ramr::telemetry::JsonWriter w(os);
    w.begin_object();
    w.field("displayTimeUnit", "ms");
    w.begin_array("traceEvents");
    for (const auto& [lane, name] : lane_names_) {
      w.begin_object();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", std::uint64_t{1});
      w.field("tid", static_cast<std::uint64_t>(lane));
      w.begin_object("args");
      w.field("name", name);
      w.end_object();
      w.end_object();
    }
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", s.name);
      w.field("ph", "X");
      w.field("pid", std::uint64_t{1});
      w.field("tid", static_cast<std::uint64_t>(s.lane));
      w.field("ts", s.t0 * 1e6);
      w.field("dur", (s.t1 - s.t0) * 1e6);
      w.begin_object("args");
      if (s.job != 0) w.field("job", s.job);
      if (!s.runtime.empty()) w.field("runtime", s.runtime);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    if (!os) throw std::runtime_error("write to " + path + " failed");
  }

 private:
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  struct Span {
    std::string name;
    double t0;
    double t1;
    int parent;
    int lane;
    std::uint64_t job;
    std::string runtime;
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<int, std::string> lane_names_;
};

}  // namespace e2e
