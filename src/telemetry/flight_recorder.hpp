// Flight recorder: a bounded ring of recent service lifecycle events that
// turns into a post-mortem JSON document when something goes wrong.
//
// The scheduler appends one Event per lifecycle transition (submit, admit,
// lease, retry, degrade, shed, terminal — the same stream the service
// trace sees). The ring holds the last `capacity` events
// (RAMR_FLIGHT_EVENTS, default 256) and overwrites silently; `dropped`
// counts what aged out so a dump is honest about its horizon.
//
// dump_json writes schema "ramr-flight-v1": the trigger reason, the context
// line and effective config stamped at startup, the retained events
// oldest-first, and an optional caller-provided "extra" section (the
// scheduler adds the failing job's identity and the latest metrics frames
// there). Triggers live in the scheduler: job abort, breaker-open,
// watchdog fire, shutdown-with-failures.
//
// Appends are mutex-guarded — every producer call site already holds or
// just released the scheduler lock, so contention is nil and the cost per
// event is one lock + a vector slot write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace ramr::telemetry {

class JsonWriter;

class FlightRecorder {
 public:
  struct Event {
    double seconds = 0.0;   // since recorder construction
    std::uint64_t job = 0;  // 0 = not job-scoped (scheduler-level event)
    std::string kind;       // "submit" | "admit" | "retry" | ...
    std::string detail;     // free-form, e.g. the error text
  };

  explicit FlightRecorder(std::size_t capacity);

  // One-time context stamped into every dump: a one-line description of
  // the owner and its effective config.
  void set_config(std::string context, std::vector<KnobSetting> knobs);

  void record(std::uint64_t job, std::string kind, std::string detail);

  // Events currently retained, oldest first.
  std::vector<Event> events() const;
  std::uint64_t dropped() const;

  // Writes the post-mortem document. `extra` (optional) is invoked with
  // the writer inside an open "extra" object to append caller fields.
  void dump_json(std::ostream& out, const std::string& reason,
                 const std::function<void(JsonWriter&)>& extra = {}) const;

  // Best-effort file dump: failures are swallowed (the recorder fires on
  // paths that are already unwinding — it must never make things worse).
  void dump_file(const std::string& path, const std::string& reason,
                 const std::function<void(JsonWriter&)>& extra = {}) const;

 private:
  const std::size_t capacity_;
  const double epoch_seconds_;  // steady-clock origin for event stamps

  mutable std::mutex mutex_;
  std::vector<Event> ring_;     // wraps at capacity_
  std::size_t next_ = 0;        // ring_[next_ % capacity_] is written next
  std::uint64_t dropped_ = 0;
  std::string context_;
  std::vector<KnobSetting> knobs_;
};

}  // namespace ramr::telemetry
