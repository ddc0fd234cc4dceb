// ServiceTrace — the process-wide stitched execution trace (RAMR_OBS=full).
//
// One service process runs many jobs, each of which may run several times
// (retries) with its own per-run trace::Recorder. This class stitches all
// of it into a single Chrome/Perfetto trace document:
//
//   pid 0          "scheduler": counter tracks (cores leased, queue depth)
//                  sampled by the scheduler's observability thread;
//   pid <job id>   one process per job, named "job <id>: <name>":
//                    tid 0   the lifecycle lane — "queued"/"run" spans plus
//                            instants for admit/retry/degrade/shed/terminal
//                            transitions;
//                    tid 1+  the per-run engine lanes (mapper/combiner/
//                            driver) copied out of each attempt's Recorder
//                            and shifted onto the shared timeline.
//
// Opening the file in Perfetto therefore shows every job as its own track
// group, with its queued/running spans on top of the worker-level task
// events of each attempt, and the core-lease timeline across all of them.
//
// All methods are mutex-guarded and cheap (a vector append); callers are
// the scheduler (under its own lock) and its sampler thread. Event and run
// storage is bounded; overflow increments drop counters that the written
// document reports in its "scheduler" process.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timing.hpp"
#include "telemetry/export.hpp"
#include "trace/trace.hpp"

namespace ramr::telemetry {

class ServiceTrace {
 public:
  // Bounds: a soak of thousands of jobs stays around a few MB of JSON;
  // beyond them events/runs are counted as dropped, never reallocated.
  static constexpr std::size_t kMaxLifeEvents = 1u << 16;
  static constexpr std::size_t kMaxRuns = 256;

  ServiceTrace();

  // Labels the job's process track ("job <id>: <name>").
  void set_job_name(std::uint64_t job, const std::string& name);

  // Lifecycle spans on the job's tid-0 lane ("queued", "run", ...).
  void begin(std::uint64_t job, const std::string& span);
  void end(std::uint64_t job, const std::string& span);

  // Lifecycle instants (retry/degrade/shed/terminal/...); detail
  // lands in the event args.
  void instant(std::uint64_t job, const std::string& name,
               const std::string& detail = {});

  // Scheduler-level counter sample (pid 0 track), e.g. "cores_leased".
  void counter(const std::string& name, double value);

  // Copies one finished attempt's engine lanes under the job's process,
  // shifting the recorder's epoch onto the service timeline. Call after
  // the run completed (the recorder must be quiescent).
  void add_run(std::uint64_t job, const trace::Recorder& recorder);

  // The stitched Chrome trace document.
  void write_chrome(std::ostream& out) const;
  // Best-effort file write (failures swallowed — tracing must not fail a
  // shutdown path).
  void write_file(const std::string& path) const;

  std::uint64_t dropped_events() const;
  std::uint64_t dropped_runs() const;

 private:
  struct LifeEvent {
    double ts_us = 0.0;
    char ph = 'i';  // 'B' | 'E' | 'i'
    std::uint64_t job = 0;
    std::string name;
    std::string detail;  // instants only
  };
  struct Run {
    std::uint64_t job = 0;
    std::uint64_t tid_base = 0;  // first tid of this run's lanes
    double offset_us = 0.0;
    std::vector<LaneView> lanes;
  };
  struct Counter {
    std::string name;
    std::vector<std::pair<double, double>> points;  // (ts_us, value)
  };

  double now_us_locked() const;
  void life_locked(LifeEvent e);

  const Clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::string> job_names_;
  std::map<std::uint64_t, std::uint64_t> job_next_tid_;  // retries stack
  std::vector<LifeEvent> life_;
  std::vector<Run> runs_;
  std::vector<Counter> counters_;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t dropped_runs_ = 0;
};

}  // namespace ramr::telemetry
