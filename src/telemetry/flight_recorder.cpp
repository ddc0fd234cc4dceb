#include "telemetry/flight_recorder.hpp"

#include <chrono>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/timing.hpp"
#include "telemetry/json.hpp"

namespace ramr::telemetry {

namespace {

double steady_seconds() {
  return std::chrono::duration_cast<Duration>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_seconds_(steady_seconds()) {
  ring_.reserve(capacity_);
}

void FlightRecorder::set_config(std::string context,
                                std::vector<KnobSetting> knobs) {
  std::lock_guard<std::mutex> lock(mutex_);
  context_ = std::move(context);
  knobs_ = std::move(knobs);
}

void FlightRecorder::record(std::uint64_t job, std::string kind,
                            std::string detail) {
  Event e;
  e.seconds = steady_seconds() - epoch_seconds_;
  e.job = job;
  e.kind = std::move(kind);
  e.detail = std::move(detail);
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[next_] = std::move(e);
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: already oldest-first
  } else {
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void FlightRecorder::dump_json(
    std::ostream& out, const std::string& reason,
    const std::function<void(JsonWriter&)>& extra) const {
  // Snapshot under the lock, write outside it: a dump must not block the
  // scheduler's event stream on ostream I/O.
  const std::vector<Event> snapshot = events();
  std::string context;
  std::vector<KnobSetting> knobs;
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    context = context_;
    knobs = knobs_;
    dropped = dropped_;
  }

  JsonWriter w(out);
  w.begin_object();
  w.field("schema", "ramr-flight-v1");
  w.field("reason", reason);
  w.field("context", context);
  write_effective_config(w, knobs);
  w.field("dropped", dropped);
  w.begin_array("events");
  for (const Event& e : snapshot) {
    w.begin_object();
    w.field("seconds", e.seconds);
    if (e.job != 0) w.field("job", e.job);
    w.field("kind", e.kind);
    if (!e.detail.empty()) w.field("detail", e.detail);
    w.end_object();
  }
  w.end_array();
  if (extra) {
    w.begin_object("extra");
    extra(w);
    w.end_object();
  }
  w.end_object();
  out << "\n";
}

void FlightRecorder::dump_file(
    const std::string& path, const std::string& reason,
    const std::function<void(JsonWriter&)>& extra) const {
  try {
    std::ofstream out(path);
    if (!out) return;
    dump_json(out, reason, extra);
  } catch (...) {
    // Post-mortem writing is best-effort by contract.
  }
}

}  // namespace ramr::telemetry
