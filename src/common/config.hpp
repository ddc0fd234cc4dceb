// Runtime configuration: every tuning knob the paper exposes, with the
// defaults reported in the paper and env-variable overrides.
//
// Paper Sec. III-A: queue capacity of five thousand elements is within 2% of
// optimal across all test-cases; Sec. IV-C: a batch size of ~1000 elements is
// best on Haswell (20-500 on Xeon Phi); Sec. III: task size is tunable via
// environment variables; Sec. III-B: the mapper:combiner ratio is application
// dependent.
//
// Every RAMR_* knob is one row of the knob table in config.cpp: env name,
// target field, value domain, plan flag and a one-line doc. The field
// initializers below are the defaults; from_env(), the pinned record,
// summary(), knob_settings() and the README knob table are all driven by
// that one table.
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/io_config.hpp"

namespace ramr {

// Thread-to-CPU placement policies evaluated in the paper (Sec. IV-B).
enum class PinPolicy {
  kRamrPaired,  // communication-aware: combiner adjacent to its mappers
  kRoundRobin,  // pin thread i to logical cpu i (role-oblivious)
  kOsDefault,   // no pinning; the OS scheduler may migrate threads
};

// Parse/print helpers; parse throws ConfigError on unknown names.
PinPolicy parse_pin_policy(const std::string& name);
std::string to_string(PinPolicy policy);

// How map tasks are dealt across the per-locality-group queues.
enum class SplitDistribution {
  kRoundRobin,  // interleave tasks across groups (best load balance)
  kBlocked,     // one contiguous block per group (best NUMA locality)
};

SplitDistribution parse_split_distribution(const std::string& name);
std::string to_string(SplitDistribution distribution);

// Adaptive-controller mode (src/adapt/): probe (the default) = a non-trait
// app on an input that affords the probe budget calibrates its plan on a
// bounded input slice (and caches it); the committed plan's knobs then hold
// for the whole run. off = the static plan for every run.
enum class AdaptMode {
  kOff,
  kProbe,
};

std::string to_string(AdaptMode mode);

// Observability level (RAMR_OBS). Each level includes the one below it:
// metrics = the telemetry session (metric registry, PMU phase counters,
// sampler, exporters); full = metrics plus the observability plane
// (stitched service trace, flight recorder, metrics sampler, skew
// profiler). Off = zero cost: the engine carries null pointers and each
// instrumentation site is one check.
enum class ObsLevel {
  kOff,
  kMetrics,
  kFull,
};

std::string to_string(ObsLevel level);

// PMU backend mode (RAMR_PMU): auto = use hardware counters when available
// (default), off = never open counters (forces the model fallback), on =
// same as auto but the run report flags that hardware counting was
// explicitly requested.
enum class PmuMode { kAuto, kOn, kOff };

std::string to_string(PmuMode mode);

// One id per knob-table row, in table order (config.cpp checks the order).
enum class Knob : std::size_t {
  kMappers, kCombiners, kRatio, kTaskSize, kQueueCapacity, kBatchSize,
  kPinPolicy, kSplitDistribution, kEmitBatch, kTaskRetries, kDeadlineMs,
  kStallMs, kFaults, kIo, kIoWindow, kIoDepth, kObs, kPmu, kSampleMicros,
  kMetricsPath, kFlightEvents, kAdapt, kPlanCache, kAdaptReport, kService,
  kServiceJobs, kServiceQueue, kServiceRetries, kBreakerK, kShedWatermark,
  kCount
};

inline constexpr std::size_t kKnobCount =
    static_cast<std::size_t>(Knob::kCount);

// Which knobs from_env() read from the environment, one bit per table row.
// The adaptive controller honours "explicit env > cache > probe > defaults":
// a knob the user pinned is never overridden by a cached or probed plan.
struct PinnedKnobs {
  std::bitset<kKnobCount> rows;

  bool operator[](Knob k) const { return rows[static_cast<std::size_t>(k)]; }
  void set(Knob k) { rows.set(static_cast<std::size_t>(k)); }

  // True when any pinned row carries the plan flag (a knob an execution
  // plan would decide).
  bool any_plan_knob() const;
};

struct RuntimeConfig {
  // Worker counts. 0 means "derive from the machine": mappers default to the
  // number of hardware threads divided by (1 + 1/ratio) rounded so that
  // mappers + combiners fills the machine; combiners = mappers / ratio.
  std::size_t num_mappers = 0;
  std::size_t num_combiners = 0;

  // Mapper:combiner ratio used when worker counts are derived (Sec. III-B:
  // "driven by the throughput of the map and combine functions").
  std::size_t mapper_combiner_ratio = 2;

  // Number of input splits per scheduled task (Sec. III: large task sizes
  // hurt load balancing, small ones add library overhead).
  std::size_t task_size = 4;

  // SPSC queue capacity in elements (Sec. III-A: 5000 is within 2% of
  // optimal across all test-cases).
  std::size_t queue_capacity = 5000;

  // Elements consumed contiguously per combiner pop (Sec. IV-C).
  std::size_t batch_size = 256;

  PinPolicy pin_policy = PinPolicy::kRamrPaired;

  // Task dealing across locality groups (Sec. III: "map tasks are added in
  // the task queues — one for each locality group").
  SplitDistribution split_distribution = SplitDistribution::kRoundRobin;

  // Producer-side emit batch, in records (0 = off, the historical
  // element-wise push). Mappers buffer up to this many records and publish
  // them through Ring::try_push_batch — one release store and at most one
  // cached-head refresh per block instead of per element. The buffer
  // flushes on full, at task boundaries, and before close/cancel.
  std::size_t emit_batch = 0;

  // ---- robustness knobs (see src/faults/, engine/health.hpp) -------------

  // Map tasks failing with a TransientError are retried up to this many
  // times before the failure aborts the run (0 = no retry; the retry and
  // abort counts are reported in RunResult).
  std::size_t max_task_retries = 0;

  // Whole-run wall-clock deadline in milliseconds (0 = none). When
  // exceeded, the run is cancelled cooperatively and run() throws an
  // AbortError naming the phase.
  std::size_t deadline_ms = 0;

  // Per-worker stall bound in milliseconds (0 = none): an active worker
  // whose heartbeat does not advance for this long trips the watchdog.
  // Must exceed the longest single map task the app can execute.
  std::size_t stall_timeout_ms = 0;

  // Fault-injection spec (see faults::FaultPlan::parse; "" = disabled,
  // zero-cost). Test/chaos-only knob.
  std::string fault_spec;

  // ---- streaming input (see src/io/, docs/ARCHITECTURE.md §15) -----------

  // Source mode, window size and in-flight window budget of streamed runs.
  io::IoConfig io;

  // ---- observability knobs (see src/telemetry/, docs/OBSERVABILITY.md) ---

  ObsLevel obs = ObsLevel::kOff;

  PmuMode pmu_mode = PmuMode::kAuto;

  // Sampler cadence in microseconds (0 = no sampler thread). Snapshots ring
  // occupancy and worker heartbeats into time-series during runs.
  std::size_t sample_interval_us = 0;

  // Periodic ramr-metrics-v1 snapshot path ("" = none) and flight-recorder
  // capacity of the obs=full service plane (Scheduler::Options).
  std::string metrics_path;
  std::size_t flight_events = 256;

  // ---- adaptive-controller knobs (see src/adapt/, docs/TUNING.md) --------

  // Probe lets core::Runtime::run decide fused or pipelined for each big
  // non-trait job through adapt::run_adaptive; off runs the static plan.
  AdaptMode adapt_mode = AdaptMode::kProbe;

  // Plan-cache file, loaded once per Runtime. Empty = no file: each
  // Runtime keeps its decided plans in memory.
  std::string plan_cache_path;

  // Where the controller writes its ramr-adapt-plan-v1 decision JSON
  // (empty = no report unless ControllerOptions names one).
  std::string adapt_report_path;

  // ---- service mode (see src/service/, ARCHITECTURE.md §12-13) -----------

  // Keeps resolved pool sets resident in the process-wide
  // engine::PoolDepot, so consecutive Runtime instances (and run_once
  // calls) of the same shape lease warm pools — threads and pins survive
  // across invocations — instead of re-spawning them.
  bool service_mode = false;

  // service::Scheduler admission and resilience knobs, copied by
  // Scheduler::Options::from_env (Options documents each; 0 = off for the
  // retry budget, breaker and shed watermark).
  std::size_t service_max_jobs = 0;
  std::size_t service_queue_depth = 16;
  std::size_t service_max_retries = 0;
  std::size_t service_breaker_k = 0;
  std::size_t service_shed_watermark = 0;

  // Filled by from_env(); empty means "nothing pinned". Fixed size: configs
  // are copied per job in service mode.
  PinnedKnobs pinned;

  // Build a config taking every RAMR_* env knob into account, starting from
  // the given base (defaults if omitted). Throws ConfigError naming the
  // variable on a bad or out-of-range value, and on a retired knob name.
  static RuntimeConfig from_env(RuntimeConfig base);
  static RuntimeConfig from_env() { return from_env(RuntimeConfig{}); }

  // Resolve derived fields against a machine with `hardware_threads` logical
  // CPUs: fills num_mappers/num_combiners if zero, clamps the ratio, and
  // validates invariants (at least one mapper and one combiner, batch not
  // larger than queue capacity). Throws ConfigError on impossible requests.
  RuntimeConfig resolved(std::size_t hardware_threads) const;

  // One line for logs: "key=value" for every knob that differs from its
  // default ("defaults" when none does). Keys are the env names without
  // the RAMR_ prefix, lower-cased; values are spelled as the env accepts
  // them.
  std::string summary() const;
};

// ---- the knob table, for reports, docs and tests ----------------------------

enum class KnobKind {
  kUint,    // unsigned integer in [lo, hi]
  kFlag,    // on|off (also 1|0, true|false, yes|no)
  kText,    // free text (a path or a spec)
  kChoice,  // one of `choices` (or one of their aliases)
};

struct KnobInfo {
  Knob id = Knob::kCount;
  const char* env = "";  // "RAMR_MAPPERS"
  std::string key;       // "mappers": the summary() key
  bool plan = false;     // an execution plan may decide it unless pinned
  const char* doc = "";
  KnobKind kind = KnobKind::kText;
  std::uint64_t lo = 0;  // kUint bounds
  std::uint64_t hi = 0;
  std::vector<std::string> choices;  // kChoice canonical names
  std::string default_value;         // the RuntimeConfig{} value, printed
};

// Every row, in table order.
const std::vector<KnobInfo>& knob_table();

// One knob of a run's effective config: its value (as the env spells it)
// and where it came from: "env" (pinned), the plan source ("cache",
// "probe", "degraded") for a plan knob the controller or scheduler
// decided, "config" (set in code), or "default".
struct KnobSetting {
  const char* env;
  std::string value;
  std::string source;
};

// Every row's setting in `cfg`. `plan_source` is PlanInfo::source of the
// run (empty when none).
std::vector<KnobSetting> knob_settings(const RuntimeConfig& cfg,
                                       const std::string& plan_source = "");

}  // namespace ramr
