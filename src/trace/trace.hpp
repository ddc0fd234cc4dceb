// Lightweight execution tracing for the pipelined runtime.
//
// The point of RAMR is *overlap*: mappers and combiners active at the same
// time on complementary resources. This subsystem records per-thread event
// timelines (task execution, drain activity, blocking) with one single-
// writer lane per thread — no locks or atomics on the hot path beyond a
// relaxed enabled-check — and renders them as an ASCII Gantt chart so the
// overlap is visible (see examples/pipeline_trace.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/timing.hpp"

namespace ramr::trace {

enum class EventKind : std::uint8_t {
  kTaskStart,    // mapper begins a task        (arg = first split)
  kTaskEnd,      // mapper finished the task    (arg = first split)
  kStreamClose,  // mapper closed its ring      (arg = mapper index)
  kDrainActive,  // combiner consumed a batch   (arg = elements consumed)
  kDrainIdle,    // combiner found all queues empty (arg unused)
  kDrainDone,     // combiner observed all queues closed+drained
  kPhaseStart,    // arg = Phase enum value
  kPhaseEnd,      // arg = Phase enum value
  kBackoffSleep,  // a full-ring or idle-combiner wait blocked (arg = 1)
  kTaskRetry,     // a map task is re-executed after a transient failure
                  // (arg = first split of the retried task)
  kIoWindow,      // the IO lane published an input window as map tasks
                  // (arg = window ordinal; streaming runs only)
  kIoStall,       // the IO lane blocked waiting for a free window slot
                  // (arg = window ordinal it was trying to fill)
};

const char* to_string(EventKind kind);

struct Event {
  double seconds = 0.0;  // relative to Recorder construction
  EventKind kind = EventKind::kTaskStart;
  std::uint32_t lane = 0;  // thread lane index
  std::uint64_t arg = 0;
};

// One single-writer event buffer. Bounded: events beyond the capacity are
// counted (dropped_) but not stored, so tracing can never blow memory.
class Lane {
 public:
  explicit Lane(std::string name, std::size_t capacity);

  const std::string& name() const { return name_; }
  void record(Clock::time_point epoch, EventKind kind, std::uint64_t arg);
  const std::vector<Event>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }
  void set_index(std::uint32_t index) { index_ = index; }

  // Recorder wiring: the lane's first record() seals its recorder against
  // further lane creation (one release store per lane, then free).
  void bind_seal(std::atomic<bool>* seal) { seal_ = seal; }

 private:
  std::string name_;
  std::size_t capacity_;
  std::uint32_t index_ = 0;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::atomic<bool>* seal_ = nullptr;
  bool recording_marked_ = false;
};

// The recorder owns the lanes. Thread-safety contract: lanes are created
// up front (before the traced region starts); each lane is then written by
// exactly one thread; collect() runs after the region quiesces.
class Recorder {
 public:
  explicit Recorder(std::size_t per_lane_capacity = 1 << 16);

  // Creates (or returns) the lane with this name. Not thread-safe; call
  // during setup only — the contract is enforced: once any lane has
  // recorded an event the recorder is sealed, and creating a NEW lane
  // throws Error (looking up an existing lane stays valid, so long-lived
  // recorders work across run() calls).
  Lane& lane(const std::string& name);

  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  std::size_t lane_count() const { return lanes_.size(); }
  const Lane& lane_at(std::size_t i) const { return *lanes_[i]; }
  Clock::time_point epoch() const { return epoch_; }

  // All events from all lanes, time-sorted.
  std::vector<Event> collect() const;

  // Total time span covered by recorded events (seconds).
  double span() const;

 private:
  Clock::time_point epoch_;
  std::size_t per_lane_capacity_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<bool> sealed_{false};
};

// ASCII Gantt chart: one row per lane, `width` time buckets; a bucket
// prints '#' if the lane was actively working in it, '.' if it was idle/
// blocked, ' ' if no events fell there. "Active" means inside a
// TaskStart/TaskEnd pair or a DrainActive event.
std::string render_timeline(const Recorder& recorder, std::size_t width = 72);

// Text summary: events per lane, drops, per-kind counts.
std::string summarize(const Recorder& recorder);

}  // namespace ramr::trace
