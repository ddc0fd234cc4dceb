// Runtime configuration: every tuning knob the paper exposes, with the
// defaults reported in the paper and env-variable overrides.
//
// Paper Sec. III-A: queue capacity of five thousand elements is within 2% of
// optimal across all test-cases; Sec. IV-C: a batch size of ~1000 elements is
// best on Haswell (20-500 on Xeon Phi); Sec. III: task size is tunable via
// environment variables; Sec. III-B: the mapper:combiner ratio is application
// dependent.
#pragma once

#include <cstddef>
#include <string>

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

// Producer/consumer backoff policy for the pipelined strategy (Sec. III-A
// evaluates sleep vs busy-wait; the exponential capped ladder is an
// extension for long combiner outages).
enum class BackoffKind {
  kBusyWait,     // spin (with periodic yield); never sleeps
  kSleep,        // fixed-period sleep after a short spin (paper default)
  kExponential,  // sleep doubling from sleep_micros up to sleep_cap_micros
};

BackoffKind parse_backoff_kind(const std::string& name);
std::string to_string(BackoffKind kind);

// Adaptive-controller mode (src/adapt/): off = static knobs only (the
// historical behaviour), probe = calibrate a plan on a bounded input slice
// (and cache it) but leave the steady state alone, full = probe + the
// steady-state governor that retunes batch size / backoff cap online.
enum class AdaptMode {
  kOff,
  kProbe,
  kFull,
};

AdaptMode parse_adapt_mode(const std::string& name);
std::string to_string(AdaptMode mode);

// Memory-subsystem mode (src/mem/): off = every allocation goes to the
// default heap exactly as before (zero code run; one pointer check per
// site), arena = per-thread bump arenas + huge-page-backed ring storage,
// numa = arena + node-local placement (first-touch prefault by each ring's
// consumer, mbind of arenas/rings to the owner's node when available).
enum class MemMode {
  kOff,
  kArena,
  kNuma,
};

MemMode parse_mem_mode(const std::string& name);
std::string to_string(MemMode mode);

// Env-knob names (all optional; see RuntimeConfig::from_env).
inline constexpr const char* kEnvMappers = "RAMR_MAPPERS";
inline constexpr const char* kEnvCombiners = "RAMR_COMBINERS";
inline constexpr const char* kEnvRatio = "RAMR_RATIO";
inline constexpr const char* kEnvTaskSize = "RAMR_TASK_SIZE";
inline constexpr const char* kEnvQueueCapacity = "RAMR_QUEUE_CAPACITY";
inline constexpr const char* kEnvBatchSize = "RAMR_BATCH_SIZE";
inline constexpr const char* kEnvPinPolicy = "RAMR_PIN_POLICY";
inline constexpr const char* kEnvSleepOnFull = "RAMR_SLEEP_ON_FULL";
inline constexpr const char* kEnvSleepMicros = "RAMR_SLEEP_US";
inline constexpr const char* kEnvSplitDistribution =
    "RAMR_SPLIT_DISTRIBUTION";
inline constexpr const char* kEnvPrecombine = "RAMR_PRECOMBINE";
inline constexpr const char* kEnvBackoff = "RAMR_BACKOFF";
inline constexpr const char* kEnvSleepCapMicros = "RAMR_SLEEP_CAP_US";
inline constexpr const char* kEnvTaskRetries = "RAMR_TASK_RETRIES";
inline constexpr const char* kEnvDeadlineMs = "RAMR_DEADLINE_MS";
inline constexpr const char* kEnvStallMs = "RAMR_STALL_MS";
inline constexpr const char* kEnvFaults = "RAMR_FAULTS";
inline constexpr const char* kEnvTelemetry = "RAMR_TELEMETRY";
inline constexpr const char* kEnvPmu = "RAMR_PMU";
inline constexpr const char* kEnvSampleMicros = "RAMR_SAMPLE_US";
inline constexpr const char* kEnvAdapt = "RAMR_ADAPT";
inline constexpr const char* kEnvPlanCache = "RAMR_PLAN_CACHE";
inline constexpr const char* kEnvAdaptReport = "RAMR_ADAPT_REPORT";
inline constexpr const char* kEnvMem = "RAMR_MEM";
inline constexpr const char* kEnvEmitBatch = "RAMR_EMIT_BATCH";
inline constexpr const char* kEnvHugePages = "RAMR_HUGEPAGES";
inline constexpr const char* kEnvService = "RAMR_SERVICE";
inline constexpr const char* kEnvServiceJobs = "RAMR_SERVICE_JOBS";
inline constexpr const char* kEnvServiceQueue = "RAMR_SERVICE_QUEUE";
inline constexpr const char* kEnvServiceRetries = "RAMR_SERVICE_RETRIES";
inline constexpr const char* kEnvHedgeFactor = "RAMR_HEDGE_FACTOR";
inline constexpr const char* kEnvBreakerK = "RAMR_BREAKER_K";
inline constexpr const char* kEnvShedWatermark = "RAMR_SHED_WATERMARK";
inline constexpr const char* kEnvObs = "RAMR_OBS";
inline constexpr const char* kEnvMetricsPath = "RAMR_METRICS_PATH";
inline constexpr const char* kEnvFlightEvents = "RAMR_FLIGHT_EVENTS";

// Which plan-relevant knobs were set explicitly via the environment.
// from_env() fills this so the adaptive controller can honour the
// precedence rule "explicit env > cache > probe > defaults": a knob the
// user pinned is never overridden by a cached or probed plan.
struct EnvOverrides {
  bool workers = false;  // RAMR_MAPPERS and/or RAMR_COMBINERS
  bool ratio = false;
  bool batch_size = false;
  bool queue_capacity = false;
  bool pin_policy = false;
  bool sleep_cap = false;
  bool emit_batch = false;

  // True when any knob an execution plan would decide is pinned by env.
  bool any_plan_knob() const {
    return workers || ratio || batch_size || queue_capacity || pin_policy;
  }
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

  // Sleep-on-failed-push (Sec. III-A). When false, mappers busy-wait on a
  // full queue.
  bool sleep_on_full = true;
  std::size_t sleep_micros = 50;

  // Mapper-side pre-combining buffer, in slots (0 = off, the paper's
  // published behaviour). Coalesces same-key emissions before they enter
  // the SPSC ring — an extension targeting the queue-traffic-bound apps.
  std::size_t precombine_slots = 0;

  // Producer-side emit batch, in records (0 = off, the historical
  // element-wise push). Mappers buffer up to this many records and publish
  // them through Ring::try_push_batch — one release store and at most one
  // cached-head refresh per block instead of per element. The buffer
  // flushes on full, at task boundaries, and before close/cancel. The
  // steady-state governor may retune it when not pinned via env.
  std::size_t emit_batch = 0;

  // Backoff policy (applies when sleep_on_full is true; sleep_on_full=false
  // forces kBusyWait in resolved() for backwards compatibility). The
  // exponential ladder starts at sleep_micros and doubles per consecutive
  // sleep, capped at sleep_cap_micros.
  BackoffKind backoff = BackoffKind::kSleep;
  std::size_t sleep_cap_micros = 1000;

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

  // ---- observability knobs (see src/telemetry/, docs/OBSERVABILITY.md) ---

  // Master switch for the telemetry subsystem (metric registry, PMU phase
  // counters, sampler, exporters). Off = zero cost: the engine carries a
  // null session pointer and each instrumentation site is one check.
  bool telemetry = false;

  // PMU backend mode, validated by telemetry::parse_pmu_mode at session
  // creation: "auto" (hardware counters when available, analytic model
  // otherwise), "on" (same, but explicitly requested), "off" (always model).
  std::string pmu_mode = "auto";

  // Sampler cadence in microseconds (0 = no sampler thread). Snapshots ring
  // occupancy and worker heartbeats into time-series during runs.
  std::size_t sample_interval_us = 0;

  // ---- adaptive-controller knobs (see src/adapt/, docs/TUNING.md) --------

  // RAMR_ADAPT=off|probe|full. Off keeps every existing code path
  // byte-identical; probe/full route core::Runtime::run through the
  // adapt::Controller.
  AdaptMode adapt_mode = AdaptMode::kOff;

  // Plan-cache file (RAMR_PLAN_CACHE). Empty = the default location,
  // $XDG_CACHE_HOME/ramr/plans.json or ~/.cache/ramr/plans.json.
  std::string plan_cache_path;

  // ---- memory-subsystem knobs (see src/mem/, docs/ARCHITECTURE.md §11) ---

  // RAMR_MEM=off|arena|numa. Off keeps every allocation on the default
  // heap, byte-identical behaviour; arena/numa build a mem::MemoryLayer in
  // the PoolSet (placed arenas + huge-page ring storage; numa adds
  // node-local binding and consumer-side first touch). RAMR_HUGEPAGES=0
  // additionally forces the huge-page advice off (fallback testing /
  // operator escape hatch); it is read by mem::hugepages_enabled, not
  // stored here.
  MemMode mem_mode = MemMode::kOff;

  // ---- service-mode knobs (see src/service/, ARCHITECTURE.md §12) --------

  // RAMR_SERVICE=1 keeps resolved pool sets resident in the process-wide
  // engine::PoolDepot, so consecutive Runtime instances (and run_once
  // calls) of the same shape lease warm pools — threads, pins, and arenas
  // survive across invocations — instead of re-spawning them. Off keeps
  // per-Runtime pools and byte-identical behaviour.
  bool service_mode = false;

  // service::Scheduler admission knobs (Scheduler::Options::from_env reads
  // them): the concurrent-job cap (0 = one job per socket) and the bound on
  // jobs waiting in the queue — a submit beyond it is rejected, not queued.
  std::size_t service_max_jobs = 0;
  std::size_t service_queue_depth = 16;

  // ---- service resilience knobs (see ARCHITECTURE.md §13) ----------------
  // All default off: the scheduler behaves exactly as before (one attempt
  // per job, no hedges, no breaker, no shedding) and default output is
  // byte-identical.

  // Job-level retry budget: a failed job re-enters admission (original
  // arrival order, exponential backoff + deterministic jitter) up to this
  // many times. A JobSpec can override it per job.
  std::size_t service_max_retries = 0;

  // Hedged execution: a running job whose elapsed time exceeds this factor
  // times its app's EWMA runtime gets a duplicate launched on spare cores;
  // the first finisher wins, the loser is cancelled. 0 = off.
  double service_hedge_factor = 0.0;

  // Per-app circuit breaker: after this many *consecutive* job failures of
  // one app, submissions for it fast-fail until the breaker half-opens on a
  // timer and a trial job closes it again. 0 = off.
  std::size_t service_breaker_k = 0;

  // Overload shedding: when the total queued admission cost exceeds this
  // high watermark, the scheduler sheds lowest-priority queued jobs
  // (JobStatus::kShed) until the cost falls to the low watermark
  // (watermark / 2). 0 = off (only the queue-depth bound applies).
  std::size_t service_shed_watermark = 0;

  // ---- service observability knobs (docs/OBSERVABILITY.md) ---------------
  // All default off: with RAMR_OBS unset the scheduler records nothing, the
  // engine's skew-profiler sites are one pointer check, and default output
  // is byte-identical.

  // RAMR_OBS=1 arms the observability plane: job lifecycle tracing into a
  // telemetry::ServiceTrace (stitched Chrome/Perfetto trace), the flight
  // recorder, the low-cadence service metrics sampler, and the per-run
  // straggler/skew profiler (imbalance scores + sampled hot keys in
  // RunResult::skew).
  bool observability = false;

  // RAMR_METRICS_PATH: when set (and RAMR_OBS=1), the scheduler's sampler
  // periodically rewrites a ramr-metrics-v1 JSON snapshot at this path.
  // Empty = no periodic file; Scheduler::metrics_text() still works.
  std::string metrics_path;

  // RAMR_FLIGHT_EVENTS: capacity of the flight recorder's bounded ring of
  // recent lifecycle events (older events are dropped, counted).
  std::size_t flight_events = 256;

  // Filled by from_env(); defaults mean "nothing pinned".
  EnvOverrides env_overrides;

  // Build a config taking every RAMR_* env knob into account, starting from
  // the given base (defaults if omitted). Throws ConfigError on bad values.
  static RuntimeConfig from_env(RuntimeConfig base);
  static RuntimeConfig from_env() { return from_env(RuntimeConfig{}); }

  // Resolve derived fields against a machine with `hardware_threads` logical
  // CPUs: fills num_mappers/num_combiners if zero, clamps the ratio, and
  // validates invariants (at least one mapper and one combiner, batch not
  // larger than queue capacity). Throws ConfigError on impossible requests.
  RuntimeConfig resolved(std::size_t hardware_threads) const;

  // Human-readable one-line summary (for bench logs).
  std::string summary() const;
};

}  // namespace ramr
