#include "common/config.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "common/env.hpp"
#include "common/error.hpp"

namespace ramr {

namespace {

// ---- value domains ----------------------------------------------------------

// A spelling of a choice value. Several spellings may share a value; the
// first one listed is canonical (printed, documented).
template <typename V>
struct Named {
  const char* name;
  V value;
};

constexpr Named<PinPolicy> kPinPolicies[] = {
    {"ramr", PinPolicy::kRamrPaired}, {"paired", PinPolicy::kRamrPaired},
    {"rr", PinPolicy::kRoundRobin},   {"round_robin", PinPolicy::kRoundRobin},
    {"os", PinPolicy::kOsDefault},    {"default", PinPolicy::kOsDefault},
    {"none", PinPolicy::kOsDefault}};
constexpr Named<SplitDistribution> kSplitDistributions[] = {
    {"rr", SplitDistribution::kRoundRobin},
    {"round_robin", SplitDistribution::kRoundRobin},
    {"block", SplitDistribution::kBlocked},
    {"blocked", SplitDistribution::kBlocked}};
// "full"/"on" are deliberately absent: they meant the probe plus an online
// retuner that is gone, and a value whose meaning changed must fail rather
// than be reinterpreted.
constexpr Named<AdaptMode> kAdaptModes[] = {
    {"off", AdaptMode::kOff}, {"0", AdaptMode::kOff},
    {"no", AdaptMode::kOff},  {"probe", AdaptMode::kProbe}};
constexpr Named<io::IoMode> kIoModes[] = {
    {"off", io::IoMode::kOff}, {"0", io::IoMode::kOff},
    {"no", io::IoMode::kOff},  {"mmap", io::IoMode::kMmap},
    {"direct", io::IoMode::kDirect}};
// "1"/"on" are deliberately absent: they meant the old boolean plane, and a
// value whose meaning changed must fail rather than be reinterpreted.
constexpr Named<ObsLevel> kObsLevels[] = {
    {"off", ObsLevel::kOff}, {"0", ObsLevel::kOff}, {"no", ObsLevel::kOff},
    {"metrics", ObsLevel::kMetrics}, {"full", ObsLevel::kFull}};
constexpr Named<PmuMode> kPmuModes[] = {
    {"auto", PmuMode::kAuto}, {"1", PmuMode::kAuto}, {"on", PmuMode::kOn},
    {"force", PmuMode::kOn},  {"off", PmuMode::kOff}, {"0", PmuMode::kOff},
    {"none", PmuMode::kOff}};

struct Uint {  // unsigned integer in [lo, hi]
  std::size_t lo, hi;
};
struct Flag {};  // on|off
struct Text {};  // any string

// ---- the knob table ---------------------------------------------------------

struct Row {
  Knob id;
  const char* env;
  bool plan;  // an execution plan (adapt controller, scheduler) decides it
  const char* doc;
};

constexpr bool kPlan = true;  // Row::plan values
constexpr bool kRun = false;  // fixed for the run: no plan decides it

// Visits every knob as v(row, field, domain), in Knob order. The one place
// a knob is declared: its default is the field initializer in config.hpp.
template <typename Config, typename Visit>
void for_each_knob(Config& c, Visit&& v) {
  // Core runtime (paper Sec. III).
  v({Knob::kMappers, "RAMR_MAPPERS", kPlan, "mapper pool size (0 = derive)"},
    c.num_mappers, Uint{0, 4096});
  v({Knob::kCombiners, "RAMR_COMBINERS", kPlan,
     "combiner pool size (0 = mappers / ratio)"},
    c.num_combiners, Uint{0, 4096});
  v({Knob::kRatio, "RAMR_RATIO", kPlan, "mapper:combiner ratio"},
    c.mapper_combiner_ratio, Uint{1, 1024});
  v({Knob::kTaskSize, "RAMR_TASK_SIZE", kRun, "input splits per map task"},
    c.task_size, Uint{1, 1'000'000});
  v({Knob::kQueueCapacity, "RAMR_QUEUE_CAPACITY", kPlan,
     "SPSC ring capacity (elements)"},
    c.queue_capacity, Uint{2, 16'777'216});
  v({Knob::kBatchSize, "RAMR_BATCH_SIZE", kPlan,
     "records per batched combiner consume (<= queue capacity)"},
    c.batch_size, Uint{1, 16'777'216});
  v({Knob::kPinPolicy, "RAMR_PIN_POLICY", kPlan,
     "thread placement: paired, round-robin or OS default"},
    c.pin_policy, kPinPolicies);
  v({Knob::kSplitDistribution, "RAMR_SPLIT_DISTRIBUTION", kRun,
     "task dealing across locality groups: interleaved or blocked"},
    c.split_distribution, kSplitDistributions);
  v({Knob::kEmitBatch, "RAMR_EMIT_BATCH", kRun,
     "records per batched producer publish (0 = element-wise)"},
    c.emit_batch, Uint{0, 1'000'000});
  // Robustness (src/faults/, engine/health.hpp).
  v({Knob::kTaskRetries, "RAMR_TASK_RETRIES", kRun,
     "retries of a map task failing with a transient error"},
    c.max_task_retries, Uint{0, 100});
  v({Knob::kDeadlineMs, "RAMR_DEADLINE_MS", kRun,
     "whole-run deadline in ms (0 = none)"},
    c.deadline_ms, Uint{0, 86'400'000});
  v({Knob::kStallMs, "RAMR_STALL_MS", kRun,
     "per-worker stall bound in ms for the watchdog (0 = none)"},
    c.stall_timeout_ms, Uint{0, 86'400'000});
  v({Knob::kFaults, "RAMR_FAULTS", kRun,
     "fault-injection spec, e.g. `map_task=3,seed=7` (tests, chaos runs)"},
    c.fault_spec, Text{});
  // Streaming input (src/io/, docs/ARCHITECTURE.md §15).
  v({Knob::kIo, "RAMR_IO", kRun,
     "streaming input: slurp, sliding mmap windows, or O_DIRECT reads"},
    c.io.mode, kIoModes);
  v({Knob::kIoWindow, "RAMR_IO_WINDOW", kRun, "streaming window size (bytes)"},
    c.io.window_bytes, Uint{64 * 1024, 1024 * 1024 * 1024});
  v({Knob::kIoDepth, "RAMR_IO_DEPTH", kRun, "in-flight streaming windows"},
    c.io.depth, Uint{2, 64});
  // Observability (src/telemetry/, docs/OBSERVABILITY.md).
  v({Knob::kObs, "RAMR_OBS", kRun,
     "`metrics`: telemetry session and exporters; `full`: metrics + trace, "
     "flight recorder, service sampler, skew profiler"},
    c.obs, kObsLevels);
  v({Knob::kPmu, "RAMR_PMU", kRun,
     "hardware counters (`off` forces the analytic-model fallback)"},
    c.pmu_mode, kPmuModes);
  v({Knob::kSampleMicros, "RAMR_SAMPLE_US", kRun,
     "telemetry sampler period in µs (0 = no sampler thread)"},
    c.sample_interval_us, Uint{0, 60'000'000});
  v({Knob::kMetricsPath, "RAMR_METRICS_PATH", kRun,
     "periodic `ramr-metrics-v1` snapshot path (`.prom` = Prometheus text)"},
    c.metrics_path, Text{});
  v({Knob::kFlightEvents, "RAMR_FLIGHT_EVENTS", kRun,
     "flight-recorder ring capacity (events)"},
    c.flight_events, Uint{16, 1'048'576});
  // Adaptive controller (src/adapt/, docs/TUNING.md).
  v({Knob::kAdapt, "RAMR_ADAPT", kRun,
     "fused or pipelined per job: `probe` decides big inputs, `off` = static"},
    c.adapt_mode, kAdaptModes);
  v({Knob::kPlanCache, "RAMR_PLAN_CACHE", kRun,
     "plan-cache file (unset = in memory, per Runtime)"},
    c.plan_cache_path, Text{});
  v({Knob::kAdaptReport, "RAMR_ADAPT_REPORT", kRun,
     "path for the `ramr-adapt-plan-v1` decision JSON"},
    c.adapt_report_path, Text{});
  // Service mode (src/service/, docs/ARCHITECTURE.md §12-13).
  v({Knob::kService, "RAMR_SERVICE", kRun,
     "lease warm pool sets from the process-wide depot"},
    c.service_mode, Flag{});
  v({Knob::kServiceJobs, "RAMR_SERVICE_JOBS", kRun,
     "scheduler concurrent-job cap (0 = one per socket)"},
    c.service_max_jobs, Uint{0, 1024});
  v({Knob::kServiceQueue, "RAMR_SERVICE_QUEUE", kRun, "admission queue depth"},
    c.service_queue_depth, Uint{0, 100'000});
  v({Knob::kServiceRetries, "RAMR_SERVICE_RETRIES", kRun,
     "job-level retry budget (docs/ARCHITECTURE.md §13)"},
    c.service_max_retries, Uint{0, 100});
  v({Knob::kBreakerK, "RAMR_BREAKER_K", kRun,
     "open an app's circuit breaker after K consecutive failures (0 = off)"},
    c.service_breaker_k, Uint{0, 1000});
  v({Knob::kShedWatermark, "RAMR_SHED_WATERMARK", kRun,
     "shed lowest-priority queued jobs above this queued cost (0 = off)"},
    c.service_shed_watermark, Uint{0, 100'000});
}

// Knob names that were removed: setting one is an error naming its
// replacement, never silently ignored.
struct Retired {
  const char* env;
  const char* replacement;
};

// What replaced the full-ring backoff knobs: a wait with nothing to tune.
constexpr const char* kRingWait =
    "nothing: a mapper on a full ring blocks on the ring until the combiner "
    "drains it (spsc::Doorbell), so the wait has no knob";

constexpr Retired kRetired[] = {
    {"RAMR_TELEMETRY", "RAMR_OBS=metrics"},
    {"RAMR_SLEEP_ON_FULL", kRingWait},
    {"RAMR_BACKOFF", kRingWait},
    {"RAMR_SLEEP_US", kRingWait},
    {"RAMR_SLEEP_CAP_US", kRingWait},
    {"RAMR_MEM", "RAMR_EMIT_BATCH=32 (rings and emit buffers use the heap)"},
    {"RAMR_HUGEPAGES",
     "the system's transparent-huge-page setting (rings use the heap)"},
    {"RAMR_PRECOMBINE",
     "RAMR_ADAPT=probe (a fused plan combines inside the mapper)"},
    {"RAMR_HEDGE_FACTOR",
     "a run deadline (RAMR_DEADLINE_MS or JobSpec::deadline_ms) plus "
     "RAMR_SERVICE_RETRIES: the watchdog aborts a straggling job and the "
     "degrade ladder retries it"},
};

// ---- per-domain parse / print / describe ------------------------------------

template <typename V, std::size_t N>
std::vector<std::string> canonical_names(const Named<V> (&names)[N]) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < N; ++i) {
    const bool alias = std::any_of(names, names + i, [&](const Named<V>& n) {
      return n.value == names[i].value;
    });
    if (!alias) out.emplace_back(names[i].name);
  }
  return out;
}

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) out += (out.empty() ? "" : "|") + w;
  return out;
}

template <typename V, std::size_t N>
V lookup(const Named<V> (&names)[N], const std::string& name,
         const std::string& what) {
  for (const Named<V>& n : names) {
    if (name == n.name) return n.value;
  }
  throw ConfigError(what + ": unknown value '" + name + "' (expected " +
                    join(canonical_names(names)) + ")");
}

template <typename F, typename V, std::size_t N>
std::string name_of(const Named<V> (&names)[N], const F& value) {
  for (const Named<V>& n : names) {
    if (value == n.value) return n.name;
  }
  return "?";
}

[[noreturn]] void throw_out_of_range(const Row& row, const std::string& raw,
                                     const std::string& range) {
  throw ConfigError("env knob " + std::string(row.env) + "=" + raw +
                    " is out of range " + range);
}

void parse(const Row& row, std::size_t& field, Uint d, const std::string& raw) {
  const std::uint64_t v = env::parse_uint(row.env, raw);
  if (v < d.lo || v > d.hi) {
    throw_out_of_range(row, raw, "[" + std::to_string(d.lo) + ", " +
                                     std::to_string(d.hi) + "]");
  }
  field = static_cast<std::size_t>(v);
}

void parse(const Row& row, bool& field, Flag, const std::string& raw) {
  field = env::parse_bool(row.env, raw);
}

void parse(const Row&, std::string& field, Text, const std::string& raw) {
  field = raw;
}

template <typename F, typename V, std::size_t N>
void parse(const Row& row, F& field, const Named<V> (&names)[N],
           const std::string& raw) {
  field = F(lookup(names, raw, "env knob " + std::string(row.env)));
}

std::string print(std::size_t v, Uint) { return std::to_string(v); }
std::string print(bool v, Flag) { return v ? "on" : "off"; }
std::string print(const std::string& v, Text) { return v; }

template <typename F, typename V, std::size_t N>
std::string print(const F& v, const Named<V> (&names)[N]) {
  return name_of(names, v);
}

void describe(KnobInfo& k, Uint d) {
  k.kind = KnobKind::kUint;
  k.lo = d.lo;
  k.hi = d.hi;
}

void describe(KnobInfo& k, Flag) { k.kind = KnobKind::kFlag; }
void describe(KnobInfo& k, Text) { k.kind = KnobKind::kText; }

template <typename V, std::size_t N>
void describe(KnobInfo& k, const Named<V> (&names)[N]) {
  k.kind = KnobKind::kChoice;
  k.choices = canonical_names(names);
}

// "RAMR_QUEUE_CAPACITY" -> "queue_capacity".
std::string key_of(std::string_view env) {
  std::string key(env.substr(std::string_view("RAMR_").size()));
  for (char& ch : key) {
    if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
  }
  return key;
}

constexpr std::size_t index_of(Knob k) { return static_cast<std::size_t>(k); }

// Every row's value in `c`, spelled as the env accepts it, in Knob order.
std::vector<std::string> printed(const RuntimeConfig& c) {
  std::vector<std::string> out;
  out.reserve(kKnobCount);
  for_each_knob(c, [&](const Row&, const auto& field, const auto& domain) {
    out.push_back(print(field, domain));
  });
  return out;
}

}  // namespace

// ---- enum names -------------------------------------------------------------

PinPolicy parse_pin_policy(const std::string& name) {
  return lookup(kPinPolicies, name, "pin policy");
}

std::string to_string(PinPolicy policy) {
  return name_of(kPinPolicies, policy);
}

SplitDistribution parse_split_distribution(const std::string& name) {
  return lookup(kSplitDistributions, name, "split distribution");
}

std::string to_string(SplitDistribution distribution) {
  return name_of(kSplitDistributions, distribution);
}

std::string to_string(AdaptMode mode) { return name_of(kAdaptModes, mode); }
std::string to_string(ObsLevel level) { return name_of(kObsLevels, level); }
std::string to_string(PmuMode mode) { return name_of(kPmuModes, mode); }
std::string io::to_string(io::IoMode mode) { return name_of(kIoModes, mode); }

// ---- table-driven config ----------------------------------------------------

const std::vector<KnobInfo>& knob_table() {
  static const std::vector<KnobInfo> table = [] {
    std::vector<KnobInfo> rows;
    const RuntimeConfig defaults;
    for_each_knob(defaults, [&](const Row& row, const auto& field,
                                const auto& domain) {
      if (index_of(row.id) != rows.size()) {
        throw std::logic_error(std::string("knob table row ") + row.env +
                               " is out of Knob order");
      }
      KnobInfo k;
      k.id = row.id;
      k.env = row.env;
      k.key = key_of(row.env);
      k.plan = row.plan;
      k.doc = row.doc;
      describe(k, domain);
      k.default_value = print(field, domain);
      rows.push_back(std::move(k));
    });
    if (rows.size() != kKnobCount) {
      throw std::logic_error("knob table is missing Knob rows");
    }
    return rows;
  }();
  return table;
}

bool PinnedKnobs::any_plan_knob() const {
  static const std::bitset<kKnobCount> plan_rows = [] {
    std::bitset<kKnobCount> mask;
    for (const KnobInfo& k : knob_table()) {
      if (k.plan) mask.set(index_of(k.id));
    }
    return mask;
  }();
  return (rows & plan_rows).any();
}

RuntimeConfig RuntimeConfig::from_env(RuntimeConfig base) {
  for (const Retired& r : kRetired) {
    if (env::get(r.env)) {
      throw ConfigError("env knob " + std::string(r.env) +
                        " is retired; use " + r.replacement);
    }
  }
  for_each_knob(base, [&](const Row& row, auto& field, const auto& domain) {
    if (auto raw = env::get(row.env)) {
      parse(row, field, domain, *raw);
      base.pinned.set(row.id);
    }
  });
  return base;
}

RuntimeConfig RuntimeConfig::resolved(std::size_t hardware_threads) const {
  RuntimeConfig r = *this;
  if (hardware_threads == 0) {
    throw ConfigError("cannot resolve config against 0 hardware threads");
  }
  if (r.mapper_combiner_ratio == 0) {
    throw ConfigError("mapper:combiner ratio must be >= 1");
  }
  if (r.num_mappers == 0 && r.num_combiners == 0) {
    // Fill the machine with mapper/combiner groups of (ratio + 1) threads.
    const std::size_t group = r.mapper_combiner_ratio + 1;
    const std::size_t groups = std::max<std::size_t>(1, hardware_threads / group);
    r.num_mappers = groups * r.mapper_combiner_ratio;
    r.num_combiners = groups;
  } else if (r.num_combiners == 0) {
    r.num_combiners =
        std::max<std::size_t>(1, r.num_mappers / r.mapper_combiner_ratio);
  } else if (r.num_mappers == 0) {
    r.num_mappers = r.num_combiners * r.mapper_combiner_ratio;
  }
  if (r.num_combiners > r.num_mappers) {
    // Paper Sec. III: the combiner pool "contains a less or equal number of
    // workers compared to the general-purpose pool".
    throw ConfigError("combiner pool larger than mapper pool (" +
                      std::to_string(r.num_combiners) + " > " +
                      std::to_string(r.num_mappers) + ")");
  }
  if (r.num_mappers == 0 || r.num_combiners == 0) {
    // Defensive: the derivations above always yield at least one worker per
    // pool, but a config that somehow resolves to an empty pool must fail
    // here with a clear message, not crash the pipelined strategy later
    // (PipelinedSpsc::collect reads combiner container 0 unconditionally).
    throw ConfigError("config resolved to an empty pool (" +
                      std::to_string(r.num_mappers) + " mappers, " +
                      std::to_string(r.num_combiners) + " combiners)");
  }
  if (r.task_size == 0) throw ConfigError("task size must be >= 1");
  if (r.queue_capacity < 2) throw ConfigError("queue capacity must be >= 2");
  if (r.batch_size == 0) throw ConfigError("batch size must be >= 1");
  if (r.batch_size > r.queue_capacity) {
    throw ConfigError("batch size " + std::to_string(r.batch_size) +
                      " exceeds queue capacity " +
                      std::to_string(r.queue_capacity));
  }
  if (r.emit_batch > r.queue_capacity) {
    throw ConfigError("emit batch " + std::to_string(r.emit_batch) +
                      " exceeds queue capacity " +
                      std::to_string(r.queue_capacity));
  }
  return r;
}

std::string RuntimeConfig::summary() const {
  const std::vector<std::string> values = printed(*this);
  std::string out;
  for (const KnobInfo& k : knob_table()) {
    const std::string& value = values[index_of(k.id)];
    if (value == k.default_value) continue;
    out += (out.empty() ? "" : " ") + k.key + "=" + value;
  }
  return out.empty() ? "defaults" : out;
}

std::vector<KnobSetting> knob_settings(const RuntimeConfig& cfg,
                                       const std::string& plan_source) {
  const bool planned = plan_source == "cache" || plan_source == "probe" ||
                       plan_source == "degraded";
  const std::vector<std::string> values = printed(cfg);
  std::vector<KnobSetting> out;
  for (const KnobInfo& k : knob_table()) {
    const std::string& value = values[index_of(k.id)];
    out.push_back({k.env, value,
                   cfg.pinned[k.id]          ? "env"
                   : k.plan && planned       ? plan_source
                   : value == k.default_value ? "default"
                                              : "config"});
  }
  return out;
}

}  // namespace ramr
