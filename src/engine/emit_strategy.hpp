// The EmitStrategy concept: how map output couples to the combine side.
//
// The paper's three architectures are one runtime skeleton (split →
// map-combine → reduce → merge, see engine/phase_driver.hpp) with different
// map→combine coupling strategies:
//
//   * FusedCombine   (Phoenix++) — combine inline after every emission into
//     a thread-local container;               engine/strategy_fused.hpp
//   * PipelinedSpsc  (RAMR)      — emissions stream through SPSC rings to a
//     concurrent combiner pool;               engine/strategy_pipelined.hpp
//   * AtomicGlobal   (MRPhi)     — emissions fetch-op on one shared
//     atomically-accessed container;          engine/strategy_atomic.hpp
//
// A strategy owns the per-run intermediate state (containers, rings) and
// implements:
//
//   using key_type / value_type;               // of the pipelined records
//   static constexpr bool kHasReduce;          // false = no reduce phase at
//                                              // all (its timer stays 0)
//   void map_combine(ctx, app, input, result); // the overlapped phase
//   void reduce(PoolSet&);                     // merge down to one container
//   void collect(result);                      // fill result.pairs, unsorted
//                                              // (containers::to_pairs of the
//                                              // final container, serial)
//
// Robustness plumbing (all owned by PhaseDriver::run, threaded through the
// context): a CancellationToken every worker polls at its scheduling
// points, a fault Injector (zero-cost when disabled), per-worker
// Heartbeats for the stall watchdog, and the task-retry state. Workers
// observing cancellation exit *quietly* so the pool that carries the
// root-cause exception is the only one that reports an error.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.hpp"
#include "common/timing.hpp"
#include "engine/health.hpp"
#include "engine/pool_set.hpp"
#include "engine/skew_profiler.hpp"
#include "faults/injector.hpp"
#include "sched/task_queue.hpp"
#include "telemetry/session.hpp"
#include "trace/trace.hpp"

namespace ramr::engine {

// Per-run trace lanes, one per thread. Lanes must exist before the pools
// start (Recorder setup is not thread-safe); each lane is then written by
// exactly one thread. Disabled (all null) without a recorder.
struct TraceLanes {
  std::vector<trace::Lane*> mapper;    // one per general-purpose worker
  std::vector<trace::Lane*> combiner;  // one per combiner (dual shape only)
  Clock::time_point epoch{};

  // Lane names: "mapper-i"/"combiner-j" under the dual shape, "worker-i"
  // under the single shape (one pool, no distinct combiner role).
  static TraceLanes create(trace::Recorder* recorder, const PoolSet& pools) {
    TraceLanes lanes;
    lanes.mapper.assign(pools.num_mappers(), nullptr);
    lanes.combiner.assign(pools.num_combiners(), nullptr);
    if (recorder == nullptr) return lanes;
    lanes.epoch = recorder->epoch();
    const std::string mapper_prefix = pools.dual() ? "mapper-" : "worker-";
    for (std::size_t m = 0; m < lanes.mapper.size(); ++m) {
      lanes.mapper[m] = &recorder->lane(mapper_prefix + std::to_string(m));
    }
    for (std::size_t j = 0; j < lanes.combiner.size(); ++j) {
      lanes.combiner[j] = &recorder->lane("combiner-" + std::to_string(j));
    }
    return lanes;
  }
};

// Shared counters for bounded task-level retry (owned by the driver; the
// totals land in RunResult::task_retries / task_aborts).
struct RetryState {
  std::size_t max_retries = 0;
  std::atomic<std::size_t> retries{0};  // retry attempts performed
  std::atomic<std::size_t> aborts{0};   // tasks that exhausted the budget
};

// Everything a strategy needs during the map-combine phase.
struct MapCombineContext {
  PoolSet& pools;
  sched::TaskQueues& queues;
  TraceLanes& lanes;
  common::CancellationToken& cancel;
  faults::Injector& injector;
  Heartbeats& beats;
  RetryState& retry;
  // Telemetry session, null when disabled (every site is one check). Slot
  // convention: mapper m -> slot m, combiner j -> combiner_slot(j).
  telemetry::Session* telemetry = nullptr;
  // Straggler/skew profiler, null unless RAMR_OBS=full (one pointer check on
  // the emit and task paths when off).
  SkewProfiler* skew = nullptr;

  telemetry::EngineMetrics* metrics() const {
    return telemetry != nullptr ? telemetry->engine_metrics() : nullptr;
  }
};

// Per-worker control block for drain_map_tasks, bundling the scheduling
// inputs with the robustness plumbing.
struct TaskLoopControl {
  sched::TaskQueues& queues;
  std::size_t group;
  trace::Lane* lane;
  Clock::time_point epoch;
  common::CancellationToken& cancel;
  faults::Injector& injector;
  Heartbeats::Slot& beat;
  RetryState& retry;
  std::size_t worker;
  telemetry::EngineMetrics* metrics;  // null when telemetry is off
  SkewProfiler* skew;                 // null unless RAMR_OBS=full

  static TaskLoopControl create(MapCombineContext& ctx, std::size_t worker) {
    return TaskLoopControl{ctx.queues,
                           ctx.pools.group_of_mapper(worker),
                           ctx.lanes.mapper[worker],
                           ctx.lanes.epoch,
                           ctx.cancel,
                           ctx.injector,
                           ctx.beats.mapper(worker),
                           ctx.retry,
                           worker,
                           ctx.metrics(),
                           ctx.skew};
  }
};

// The shared mapper task loop: pops TaskRanges from the group's queue,
// maps every split through `emit`, runs `on_task_end` between tasks (the
// pipelined strategy flushes its emit buffer there), and records task
// start/end trace events. Returns the number of tasks executed.
//
// Robustness semantics:
//  * cancellation is polled between tasks — a worker whose peer failed (or
//    whose run hit a deadline/stall verdict) stops pulling work and
//    returns normally with a partial count;
//  * a task attempt that throws a TransientError is re-executed up to
//    ctl.retry.max_retries times (the fault site fires *before* the task
//    body, so injected transient faults retry exactly-once-semantically;
//    an app that throws mid-emission is retried with at-least-once
//    emission semantics — see docs/ARCHITECTURE.md §6);
//  * any other exception (and a transient one past the budget) propagates
//    to the strategy's worker wrapper, which attributes it on the token
//    and rethrows.
template <typename App, typename Emit, typename OnTaskEnd>
std::size_t drain_map_tasks(const TaskLoopControl& ctl, const App& app,
                            const typename App::input_type& input,
                            Emit&& emit, OnTaskEnd&& on_task_end) {
  std::size_t executed = 0;
  // Skew-profiler emit shim: one null check per emission when profiling is
  // off; a tick + (1-in-64) sketch sample when on. Forwards to the
  // strategy's emit untouched either way.
  auto profiled_emit = [&](auto&& key, auto&&... rest) {
    if (ctl.skew != nullptr && ctl.skew->tick(ctl.worker)) {
      ctl.skew->sample_key(ctl.worker, key);
    }
    emit(std::forward<decltype(key)>(key),
         std::forward<decltype(rest)>(rest)...);
  };
  for (;;) {
    std::optional<sched::TaskRange> task = ctl.queues.pop(ctl.group);
    if (!task) {
      // Streaming mode (src/io/): an empty pop while the feeder's stream
      // is open means "wait, more windows are coming". The closed-then-
      // repop order matters: close_stream() is release-ordered after the
      // feeder's final push, so re-popping after observing the closed flag
      // sees every task (a plain break could strand the last window).
      if (ctl.queues.stream_open()) {
        if (ctl.cancel.cancelled()) break;
        ctl.beat.bump();
        ctl.queues.note_stream_wait();
        ctl.queues.wait_stream([&] { return ctl.cancel.cancelled(); });
        continue;
      }
      task = ctl.queues.pop(ctl.group);
      if (!task) break;
    }
    if (ctl.cancel.cancelled()) break;
    ctl.beat.bump();
    if (ctl.lane != nullptr) {
      ctl.lane->record(ctl.epoch, trace::EventKind::kTaskStart, task->begin);
    }
    const Clock::time_point task_start =
        ctl.skew != nullptr ? Clock::now() : Clock::time_point{};
    std::size_t attempt = 0;
    for (;;) {
      try {
        ctl.injector.on_map_task(ctl.worker);
        for (std::size_t split = task->begin; split < task->end; ++split) {
          app.map(input, split, profiled_emit);
        }
        on_task_end();
        break;
      } catch (const TransientError&) {
        if (attempt >= ctl.retry.max_retries || ctl.cancel.cancelled()) {
          ctl.retry.aborts.fetch_add(1, std::memory_order_relaxed);
          if (ctl.metrics != nullptr) {
            ctl.metrics->task_aborts->increment(ctl.worker);
          }
          throw;
        }
        ++attempt;
        ctl.retry.retries.fetch_add(1, std::memory_order_relaxed);
        if (ctl.lane != nullptr) {
          ctl.lane->record(ctl.epoch, trace::EventKind::kTaskRetry,
                           task->begin);
        }
        if (ctl.metrics != nullptr) {
          ctl.metrics->task_retries->increment(ctl.worker);
        }
        ctl.beat.bump();
      }
    }
    if (ctl.skew != nullptr) {
      ctl.skew->add_busy(ctl.worker, seconds_between(task_start, Clock::now()));
    }
    if (ctl.lane != nullptr) {
      ctl.lane->record(ctl.epoch, trace::EventKind::kTaskEnd, task->begin);
    }
    ctl.beat.bump();
    ++executed;
    if (ctl.metrics != nullptr) {
      ctl.metrics->tasks_executed->increment(ctl.worker);
    }
    // Streaming backpressure: report the completed task so its window slot
    // can retire (one pointer check outside streaming mode). Only fully
    // successful tasks report — an aborted task leaves its slot pending
    // and the feeder's cancel-aware slot wait bails instead.
    ctl.queues.notify_complete(*task);
  }
  return executed;
}

template <typename St>
concept EmitStrategy = requires {
  typename St::key_type;
  typename St::value_type;
  { St::kHasReduce } -> std::convertible_to<bool>;
};

}  // namespace ramr::engine
