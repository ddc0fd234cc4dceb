// Telemetry session: one per runtime instance, owning the metric registry,
// the optional sampling thread and the PMU backends, and accumulating
// per-phase counter measurements across run() calls (latest run wins).
//
// Lifecycle (driven by engine::PhaseDriver):
//
//   Runtime ctor   Session::from_config (nullptr when RAMR_OBS is
//                  off — the engine then carries a null pointer and every
//                  instrumentation site is one pointer check)
//   run() start    attach_pools(tids) once, begin_run(epoch) — sampler on
//   per phase      begin_phase / end_phase — PMU deltas per pool
//   run() end      end_run — sampler off
//   afterwards     exporters read phase_counters()/metrics()/series()
//
// The IPB/MSPI/RSPI source resolution lives here: a phase+pool entry is
// "pmu" when the hardware backend measured it, else "model" when the caller
// provided analytic fallback counters (perf/stall_model.hpp), else "none".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "perf/counters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/pmu.hpp"
#include "telemetry/sampler.hpp"

namespace ramr {
struct RuntimeConfig;
}

namespace ramr::telemetry {

// The two pools the paper distinguishes; single-pool runtimes report
// everything under kMapper (their only pool).
enum class PoolKind : std::size_t { kMapper = 0, kCombiner = 1 };
inline constexpr std::size_t kPoolKinds = 2;

const char* to_string(PoolKind kind);

enum class CounterSource { kNone, kPmu, kModel };

const char* to_string(CounterSource source);

// Resolved IPB/MSPI/RSPI inputs for one (phase, pool) cell.
struct PhaseCounters {
  CounterSource source = CounterSource::kNone;
  perf::Counters counters;  // input_bytes filled from set_input_bytes
  std::uint64_t cycles = 0;
  // Under the pmu source: which stall events the kernel actually granted
  // (instructions are always measured — they gate the pmu source itself).
  bool cycles_measured = false;
  bool mem_stall_measured = false;
  bool resource_stall_measured = false;
};

// Pre-created handles for the engine's instrumentation sites. Slot
// convention across every metric: mapper m writes slot m, combiner j writes
// slot num_mappers + j — the same ordering as engine::Heartbeats.
struct EngineMetrics {
  std::size_t combiner_slot_base = 0;
  Counter* tasks_executed = nullptr;
  Counter* queue_pushes = nullptr;
  Counter* queue_failed_pushes = nullptr;
  Counter* queue_batches = nullptr;
  Counter* queue_push_batches = nullptr;  // producer batched publishes
  Counter* backoff_sleeps = nullptr;
  Counter* task_retries = nullptr;
  Counter* task_aborts = nullptr;
  Histogram* batch_sizes = nullptr;
  Gauge* queue_max_occupancy = nullptr;

  std::size_t combiner_slot(std::size_t j) const {
    return combiner_slot_base + j;
  }
};

struct SessionOptions {
  PmuMode pmu = PmuMode::kAuto;
  std::size_t sample_interval_us = 0;  // 0 = no sampler thread
  std::size_t num_mappers = 1;
  std::size_t num_combiners = 0;
};

class Session {
 public:
  explicit Session(SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // nullptr when config.obs is off. Reads the RAMR_PMU / RAMR_SAMPLE_US
  // knobs mirrored into the config; the per-worker metric slots are sized
  // to the pools actually leased (a fused run's single pool may be wider
  // than the config's mapper count).
  static std::unique_ptr<Session> from_config(const RuntimeConfig& config,
                                              std::size_t num_mappers,
                                              std::size_t num_combiners);

  const SessionOptions& options() const { return options_; }

  // ---- engine-facing surface -------------------------------------------
  EngineMetrics* engine_metrics() { return &engine_metrics_; }
  MetricRegistry& registry() { return registry_; }
  Sampler* sampler() { return sampler_.get(); }

  // Opens per-thread PMU counters (subject to mode and availability); call
  // once per pool-set, before the first begin_phase. Tids <= 0 are skipped.
  void attach_pools(const std::vector<std::int64_t>& mapper_tids,
                    const std::vector<std::int64_t>& combiner_tids);

  void begin_run(Clock::time_point trace_epoch);
  void end_run();
  void begin_phase(Phase phase);
  void end_phase(Phase phase, double seconds);

  // ---- exporter-facing surface -----------------------------------------

  // Bytes of input processed by the run (the IPB denominator).
  void set_input_bytes(double bytes) { input_bytes_ = bytes; }
  double input_bytes() const { return input_bytes_; }

  // Analytic fallback counters for one (phase, pool) cell, used when the
  // PMU did not measure it (see perf/stall_model.hpp for producing them).
  void set_modeled(Phase phase, PoolKind pool, perf::Counters counters);

  // Measured-or-modeled counters with the active source labeled.
  PhaseCounters phase_counters(Phase phase, PoolKind pool) const;

  double phase_seconds(Phase phase) const {
    return phase_seconds_[static_cast<std::size_t>(phase)];
  }

  // True when at least one pool has live hardware counters.
  bool pmu_active() const;
  PmuMode pmu_mode() const { return options_.pmu; }

  MetricsSnapshot metrics() const { return registry_.collect(); }
  std::vector<Sampler::Series> series() const;

 private:
  struct Cell {
    bool measured = false;
    PmuSample sample;
    bool modeled = false;
    perf::Counters model;
  };

  Cell& cell(Phase phase, PoolKind pool) {
    return cells_[static_cast<std::size_t>(phase)]
                 [static_cast<std::size_t>(pool)];
  }
  const Cell& cell(Phase phase, PoolKind pool) const {
    return cells_[static_cast<std::size_t>(phase)]
                 [static_cast<std::size_t>(pool)];
  }

  SessionOptions options_;
  MetricRegistry registry_;
  EngineMetrics engine_metrics_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<PoolPmu> pool_pmu_[kPoolKinds];
  std::array<std::array<Cell, kPoolKinds>, kPhaseCount> cells_{};
  std::array<double, kPhaseCount> phase_seconds_{};
  double input_bytes_ = 0.0;
};

}  // namespace ramr::telemetry
