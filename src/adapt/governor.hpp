// Steady-state governor: retunes the safe mid-phase knobs while the
// pipelined phase runs.
//
// A dedicated low-cadence thread (started by adapt::Controller around
// PhaseDriver::run, never owned by the driver — the engine stays free of
// control loops) collects MetricRegistry snapshots, turns the window delta
// into a TuningObservation (failed-push rate, batch-size histogram median,
// ring occupancy), asks the TuningPolicy for a decision, clamps it to the
// safe bounds, and applies it through engine::TuningControl:
//
//   batch size    in [1, queue_capacity / 2]  — a batch can never pin the
//                 consumer to a ring for more than half its capacity, and
//                 the combiner re-reads the value per sweep so a change is
//                 never applied mid-batch;
//   sleep cap     in [1, 10'000'000] us       — producer backoff ladders
//                 re-read the cap per sleep;
//   emit batch    in [1, queue_capacity / 2]  — only when the run started
//                 with producer batching on (RAMR_EMIT_BATCH > 0) and
//                 the knob is not pinned via RAMR_EMIT_BATCH; mappers
//                 re-read it per buffered emit, never mid-flush.
//
// Ratio and pinning are committed before the pools start and are never
// touched here (repinning live threads is not safe mid-phase).
// Every applied change is recorded as a GovernorAction and, when a trace
// lane was provided, as a kGovernorAction event.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "engine/tuning.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace.hpp"

namespace ramr::adapt {

// The built-in policy (used when the library user installs none):
// additive-increase is deliberately avoided — both knobs move in powers of
// two, mirroring the paper's sweep granularity (Figs. 6/7).
//  * congestion (failed-push rate above 5%): double the batch (drain more
//    per sweep) and double the producer sleep cap (blocked mappers should
//    stay off the combiner's core longer);
//  * clear underrun (no failed pushes, near-empty rings, and the median
//    sweep drains less than half the configured batch): halve the batch —
//    a smaller batch reduces latency without costing throughput when
//    sweeps never fill it anyway.
class DefaultTuningPolicy : public engine::TuningPolicy {
 public:
  engine::TuningDecision on_observation(
      const engine::TuningObservation& obs) override;
};

struct GovernorOptions {
  std::chrono::microseconds interval{5000};
  std::size_t queue_capacity = 0;   // bound for the batch clamp
  std::size_t sleep_cap_floor = 1;  // never sleep-cap below this (us)
  // Whether the emit-batch knob may be retuned (false when pinned via
  // RAMR_EMIT_BATCH; it is also ignored whenever the run started with
  // producer batching off — see engine::TuningControl::emit_batch).
  bool tune_emit_batch = false;
};

class Governor {
 public:
  // All referenced objects must outlive the governor. `lane` may be null
  // (no tracing); it must have been created before recording starts.
  Governor(engine::TuningControl& control, engine::TuningPolicy& policy,
           telemetry::MetricRegistry& registry, GovernorOptions options,
           trace::Lane* lane = nullptr, Clock::time_point epoch = now());
  ~Governor();

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  void start();
  void stop();

  std::vector<engine::GovernorAction> actions() const;

 private:
  void run();
  void tick();

  engine::TuningControl& control_;
  engine::TuningPolicy& policy_;
  telemetry::MetricRegistry& registry_;
  GovernorOptions options_;
  trace::Lane* lane_;
  Clock::time_point epoch_;

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;

  telemetry::MetricsSnapshot previous_;
  mutable std::mutex actions_mutex_;
  std::vector<engine::GovernorAction> actions_;
};

}  // namespace ramr::adapt
