// Structured exporters: Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) and a machine-readable run report.
//
// Both exporters are pure functions over plain view structs so tests can
// feed hand-built, deterministic inputs and compare against goldens; the
// convenience overloads snapshot a live Recorder / Session.
//
// Chrome trace mapping (docs/OBSERVABILITY.md has the full table):
//   kTaskStart/kTaskEnd     ->  "B"/"E" duration pairs (one per task)
//   kPhaseStart/kPhaseEnd   ->  "B"/"E" pairs on the driver lane
//   every other event kind  ->  "i" instants named after the kind
//   sampler series          ->  "C" counter events (graphed as area tracks)
//   lane names              ->  "M" thread_name metadata
// Timestamps are microseconds relative to the recorder epoch; the sampler
// shares that epoch so counter tracks line up with the event tracks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "engine/result.hpp"
#include "perf/counters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/session.hpp"
#include "trace/trace.hpp"

namespace ramr::telemetry {

class JsonWriter;

// ---- chrome trace ----------------------------------------------------------

// One thread timeline: a lane name plus its (time-ordered) events.
struct LaneView {
  std::string name;
  std::vector<trace::Event> events;
};

std::vector<LaneView> lane_views(const trace::Recorder& recorder);

// Writes {"traceEvents": [...], "displayTimeUnit": "ms"}. Series may be
// empty. process_name labels the single pid used for all tracks.
void chrome_trace_json(std::ostream& out, const std::vector<LaneView>& lanes,
                       const std::vector<Sampler::Series>& series,
                       const std::string& process_name = "ramr");

// Building blocks for multi-process trace documents (the service-wide
// stitched trace, src/telemetry/service_trace.hpp, reuses the single-run
// event mapping with its own pid/tid layout). Each writes complete event
// objects into an already-open "traceEvents" array; ts_offset_us shifts a
// lane recorded against a later epoch onto the document's shared timeline.
void chrome_process_name_json(JsonWriter& w, std::uint64_t pid,
                              const std::string& name);
void chrome_thread_name_json(JsonWriter& w, std::uint64_t pid,
                             std::uint64_t tid, const std::string& name);
void chrome_lane_events_json(JsonWriter& w, const LaneView& lane,
                             std::uint64_t pid, std::uint64_t tid,
                             double ts_offset_us = 0.0);

// ---- run report ------------------------------------------------------------

// Scalar run outcome, decoupled from the RunResult template parameters.
struct RunInfo {
  double split_seconds = 0.0;
  double map_combine_seconds = 0.0;
  double reduce_seconds = 0.0;
  double merge_seconds = 0.0;
  std::size_t pairs = 0;
  std::size_t tasks_executed = 0;
  std::size_t local_pops = 0;
  std::size_t steals = 0;
  std::size_t queue_pushes = 0;
  std::size_t queue_failed_pushes = 0;
  std::size_t queue_batches = 0;
  std::size_t queue_push_batches = 0;
  std::size_t queue_max_occupancy = 0;
  std::size_t backoff_sleeps = 0;
  std::size_t task_retries = 0;
  std::size_t task_aborts = 0;

  // Execution-plan provenance (empty strategy = not stamped, e.g. a
  // hand-built report).
  engine::PlanInfo plan;

  // Process-wide peak RSS; the report always emits it in a "memory"
  // object, because it is stamped on every run.
  std::size_t peak_rss_bytes = 0;

  // Streaming-input outcome; io.enabled() is false (and the report emits
  // no "io" object) unless an IO-lane source fed the run (RAMR_IO).
  engine::IoStats io;

  // Straggler/skew profile; skew.enabled is false (and the report emits no
  // "skew" object) unless RAMR_OBS was on.
  engine::SkewStats skew;

  // Hot-path dispatch provenance (the map-kernel table).
  engine::DispatchStats dispatch;
};

template <typename K, typename V>
RunInfo make_run_info(const engine::RunResult<K, V>& r) {
  RunInfo info;
  info.split_seconds = r.timers.seconds(Phase::kSplit);
  info.map_combine_seconds = r.timers.seconds(Phase::kMapCombine);
  info.reduce_seconds = r.timers.seconds(Phase::kReduce);
  info.merge_seconds = r.timers.seconds(Phase::kMerge);
  info.pairs = r.pairs.size();
  info.tasks_executed = r.tasks_executed;
  info.local_pops = r.local_pops;
  info.steals = r.steals;
  info.queue_pushes = r.queue_pushes;
  info.queue_failed_pushes = r.queue_failed_pushes;
  info.queue_batches = r.queue_batches;
  info.queue_push_batches = r.queue_push_batches;
  info.queue_max_occupancy = r.queue_max_occupancy;
  info.backoff_sleeps = r.backoff_sleeps;
  info.task_retries = r.task_retries;
  info.task_aborts = r.task_aborts;
  info.plan = r.plan;
  info.peak_rss_bytes = r.peak_rss_bytes;
  info.io = r.io;
  info.skew = r.skew;
  info.dispatch = r.dispatch;
  return info;
}

// One (phase, pool) row of suitability-metric inputs, source-labeled
// ("pmu" = hardware counters, "model" = analytic stall model).
struct PhaseEntry {
  std::string phase;
  std::string pool;
  std::string source;
  double seconds = 0.0;
  perf::Counters counters;
  std::uint64_t cycles = 0;
  bool cycles_measured = false;
  bool mem_stall_measured = false;
  bool resource_stall_measured = false;
};

struct RunReport {
  std::string app;
  std::string runtime;
  std::vector<KnobSetting> effective_config;
  std::string pmu_mode = "off";
  bool pmu_available = false;
  std::string pmu_reason;
  bool pmu_active = false;
  double input_bytes = 0.0;
  RunInfo result;
  std::vector<PhaseEntry> phases;
  MetricsSnapshot metrics;
  std::vector<Sampler::Series> series;
};

// The run's effective config: every knob of `cfg` (the config the run was
// built from) with its source; plan knobs the adaptive controller or the
// scheduler decided take the plan's value and source.
std::vector<KnobSetting> effective_config(RuntimeConfig cfg,
                                          const engine::PlanInfo& plan);

// Fills the telemetry-derived report fields (pmu status, input bytes,
// per-phase counters with their active source, metrics snapshot, sampler
// series) from a live session; the caller sets app/runtime/
// effective_config/result.
void fill_from_session(RunReport& report, const Session& session);

void run_report_json(std::ostream& out, const RunReport& report);

// Writes `content_writer(stream)` to `path`; throws Error on failure.
void write_json_file(const std::string& path,
                     const std::function<void(std::ostream&)>& content_writer);

// ---- counter documents -----------------------------------------------------

// A flat named-counter JSON document: {"schema": <schema>, "counters":
// {name: value, ...}} with the counters emitted in the given order.
// Subsystems with a handful of monotonic counters (e.g. the service
// scheduler's ramr-service-stats-v1) export through this instead of each
// hand-rolling JSON.
std::string counters_json(
    const std::string& schema,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters);

}  // namespace ramr::telemetry
