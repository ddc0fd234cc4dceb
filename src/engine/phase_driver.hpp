// PhaseDriver — the runtime skeleton every architecture shares.
//
// One MapReduce invocation is the same four-phase sequence regardless of
// how map couples to combine (paper Fig. 1 categories):
//
//   split       : TaskQueues::distribute[_blocked] over locality groups
//   map-combine : delegated to the EmitStrategy (one timed phase; the
//                 pipelined strategy runs two pools concurrently in it)
//   reduce      : strategy merges intermediate state down to one container
//                 (skipped entirely — timer stays 0 — when the strategy
//                 has no reduce, e.g. the atomic-global design)
//   merge       : collect pairs, apply the app's optional per-key reducer,
//                 key sort (containers::sort_by_key), all serial on the
//                 driver thread for every strategy and key type
//
// The driver also owns the trace wiring: with a Recorder set, every
// strategy gets per-thread lanes (task and drain events), so Phoenix++ and
// MRPhi runs are traceable exactly like RAMR ones.
//
// Robustness: the driver owns one CancellationToken, fault Injector,
// Heartbeats block, and RetryState per run() and threads them to the
// strategy through MapCombineContext. With a deadline or stall bound
// configured it also runs a Watchdog thread that converts a hung or
// over-budget run into a cooperative cancel; the driver then throws a
// structured common::AbortError (phase- and worker-attributed) instead of
// joining forever. All of it is zero-cost when the knobs are off: no
// watchdog thread, a disabled injector, and one token poll per task.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancellation.hpp"
#include "common/config.hpp"
#include "common/rss.hpp"
#include "common/timing.hpp"
#include "containers/key_sort.hpp"
#include "engine/app_model.hpp"
#include "engine/emit_strategy.hpp"
#include "engine/health.hpp"
#include "engine/pool_set.hpp"
#include "engine/result.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "sched/task_queue.hpp"
#include "simd/kernels.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/session.hpp"
#include "trace/trace.hpp"

namespace ramr::engine {

// The phase-sequencing knobs (the strategy-specific knobs stay in
// RuntimeConfig and are read by the strategies from PoolSet::config()).
struct DriverOptions {
  std::size_t task_size = 4;
  SplitDistribution split_distribution = SplitDistribution::kRoundRobin;

  // Robustness knobs, mirroring the RuntimeConfig fields of the same names
  // (driver_options_from copies them; the single-pool runtimes expose them
  // through their own Options structs).
  std::size_t max_task_retries = 0;
  std::size_t deadline_ms = 0;
  std::size_t stall_timeout_ms = 0;
  std::string fault_spec;

  // Provenance of the plan this driver executes, stamped into
  // RunResult::plan: "default" | "env" | "cache" | "probe" | "trait" |
  // "degraded". The adaptive controller sets cache/probe on the drivers it
  // builds for committed plans, engine::lease_for sets trait for
  // mr::CombinesInMap apps; driver_options_from derives env/default from
  // the config.
  std::string plan_source = "default";

  // External cancellation source (a service job's per-job token). When set,
  // the driver runs a watchdog even without deadline/stall bounds; the
  // watchdog forwards the external signal into the per-run token and run()
  // throws AbortError(kExternal). A token already tripped at run() entry
  // aborts before any work starts. Must outlive the run; nullptr = none.
  common::CancellationToken* external_cancel = nullptr;

  // Second external source with identical semantics (a client-owned token
  // chained alongside the scheduler's per-job token). First to trip wins.
  common::CancellationToken* external_cancel2 = nullptr;
};

inline DriverOptions driver_options_from(const RuntimeConfig& cfg) {
  return DriverOptions{cfg.task_size,        cfg.split_distribution,
                       cfg.max_task_retries, cfg.deadline_ms,
                       cfg.stall_timeout_ms, cfg.fault_spec,
                       cfg.pinned.any_plan_knob() ? "env" : "default"};
}

// Streaming-run plumbing (PhaseDriver::run_stream): everything an IO-lane
// task pump needs to publish map tasks into a live run. The driver fills
// one of these during the split phase and hands it to Pump::start; the
// pump's feeder thread then pushes TaskRanges through `queues` (whose
// stream was already opened), fires the io_read fault site through
// `injector`, traces window/stall events onto `lane`, and polls `cancel`
// in every wait loop so a failed or aborted run never strands it.
struct StreamHooks {
  sched::TaskQueues* queues = nullptr;
  common::CancellationToken* cancel = nullptr;
  faults::Injector* injector = nullptr;
  trace::Lane* lane = nullptr;  // the "io-lane"; null when tracing is off
  Clock::time_point epoch{};
  std::size_t task_size = 4;
  std::size_t num_groups = 1;
  std::size_t max_retries = 0;  // transient io_read retry budget
};

// A task pump produces map tasks from an external source on its own
// thread (the IO lane; io::StreamFeeder is the implementation).
//   start(hooks)     — spawn the feeder thread; returns immediately;
//   finish()         — join and rethrow the feeder's failure, if any;
//   cancel_and_join()— noexcept unwind path: stop + join, swallow errors;
//   stats()          — IoStats of the finished stream.
template <typename P>
concept TaskPump = requires(P pump, const StreamHooks& hooks) {
  pump.start(hooks);
  pump.finish();
  pump.cancel_and_join();
  { pump.stats() } -> std::convertible_to<IoStats>;
};

namespace detail {
// Sentinel pump for the materialized-input path; never started.
struct NullPump {
  void start(const StreamHooks&) {}
  void finish() {}
  void cancel_and_join() noexcept {}
  IoStats stats() const { return {}; }
};
}  // namespace detail

class PhaseDriver {
 public:
  explicit PhaseDriver(PoolSet& pools, DriverOptions options = {})
      : pools_(pools), options_(std::move(options)) {}

  // Optional execution tracing: one lane per worker thread, task/drain
  // events, phase marks. The recorder must outlive every run(); pass
  // nullptr to disable (the default).
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

  // Optional telemetry session (metric registry, PMU phase counters,
  // sampler); must outlive every run(); nullptr disables (the default, and
  // then every instrumentation site in the engine is one pointer check).
  void set_telemetry(telemetry::Session* session) { telemetry_ = session; }

  template <EmitStrategy St, typename App>
  RunResult<typename St::key_type, typename St::value_type> run(
      St& strategy, const App& app, const typename App::input_type& input) {
    detail::NullPump pump;
    return run_impl(strategy, app, input, pump);
  }

  // Streaming variant (src/io/): instead of distributing a precomputed
  // split count, the split phase opens the queues' stream and starts the
  // pump's IO-lane thread; mappers wait on the open stream
  // (drain_map_tasks) while the feeder publishes tasks window by window.
  // pump.finish() runs right after the map-combine phase and rethrows the
  // feeder's failure, if any — a failed read cancels the run cooperatively
  // (cause kWorkerFailed, so workers unwind quietly) and the root cause
  // surfaces here, attributed to the io-lane. The pump must be freshly
  // constructed per run.
  template <EmitStrategy St, typename App, TaskPump Pump>
  RunResult<typename St::key_type, typename St::value_type> run_stream(
      St& strategy, const App& app, const typename App::input_type& input,
      Pump& pump) {
    return run_impl(strategy, app, input, pump);
  }

 private:
  template <EmitStrategy St, typename App, typename Pump>
  RunResult<typename St::key_type, typename St::value_type> run_impl(
      St& strategy, const App& app, const typename App::input_type& input,
      Pump& pump) {
    constexpr bool kStreaming = !std::is_same_v<Pump, detail::NullPump>;
    RunResult<typename St::key_type, typename St::value_type> result;

    // A job cancelled before its run started never touches the pools.
    for (common::CancellationToken* ext :
         {options_.external_cancel, options_.external_cancel2}) {
      if (ext != nullptr && ext->cancelled()) {
        common::CancelState state = ext->snapshot();
        if (state.cause == common::CancelCause::kNone) {
          state.cause = common::CancelCause::kExternal;
        }
        throw common::AbortError(std::move(state));
      }
    }

    // ---- per-run robustness state ---------------------------------------
    common::CancellationToken cancel;
    faults::Injector injector(faults::FaultPlan::parse(options_.fault_spec));
    injector.bind(&cancel);
    Heartbeats beats(pools_.num_mappers(), pools_.num_combiners(),
                     pools_.dual());
    RetryState retry;
    retry.max_retries = options_.max_task_retries;
    std::optional<Watchdog> watchdog;
    if (options_.deadline_ms > 0 || options_.stall_timeout_ms > 0 ||
        options_.external_cancel != nullptr ||
        options_.external_cancel2 != nullptr) {
      watchdog.emplace(
          Watchdog::Options{
              std::chrono::milliseconds(options_.deadline_ms),
              std::chrono::milliseconds(options_.stall_timeout_ms),
              options_.external_cancel, options_.external_cancel2},
          cancel, beats);
    }
    const auto mark_phase = [&](Phase phase) {
      if (watchdog) watchdog->set_phase(phase);
    };
    // A watchdog verdict cancels cooperatively; workers unwind quietly and
    // the driver converts the recorded snapshot into a structured error at
    // the next phase boundary. (A worker *failure* instead surfaces as the
    // worker's own exception through the pool join.)
    const auto throw_if_aborted = [&] {
      if (!cancel.cancelled()) return;
      common::CancelState state = cancel.snapshot();
      if (state.cause != common::CancelCause::kWorkerFailed) {
        throw common::AbortError(std::move(state));
      }
    };

    // ---- trace + telemetry setup (before any event is recorded) ---------
    // Every lane must exist before the first record() seals the recorder:
    // the driver's own phase-mark lane first, then one lane per worker.
    trace::Lane* driver_lane =
        recorder_ != nullptr ? &recorder_->lane("driver") : nullptr;
    // The IO lane's trace lane must also exist before the recorder seals.
    trace::Lane* io_lane = nullptr;
    if constexpr (kStreaming) {
      if (recorder_ != nullptr) io_lane = &recorder_->lane("io-lane");
    }
    TraceLanes lanes = TraceLanes::create(recorder_, pools_);
    if (telemetry_ != nullptr) {
      telemetry_->attach_pools(pools_.mapper_pool().os_tids(),
                               pools_.dual()
                                   ? pools_.combiner_pool().os_tids()
                                   : std::vector<std::int64_t>{});
      telemetry_->begin_run(recorder_ != nullptr ? recorder_->epoch()
                                                 : now());
    }
    // end_run (sampler stop) on every exit path, including aborts.
    struct TelemetryRunScope {
      telemetry::Session* session;
      ~TelemetryRunScope() {
        if (session != nullptr) session->end_run();
      }
    } run_scope{telemetry_};
    // Heartbeat time-series; handles must die before `beats` (they do:
    // declared after it, and removal is safe while the sampler runs).
    std::vector<telemetry::Sampler::ProbeHandle> beat_probes;
    if (telemetry_ != nullptr && telemetry_->sampler() != nullptr) {
      beat_probes.reserve(beats.size());
      for (std::size_t i = 0; i < beats.size(); ++i) {
        Heartbeats::Slot& slot = beats.slot(i);
        beat_probes.push_back(telemetry_->sampler()->scoped_probe(
            "heartbeat/" + beats.worker_name(i), [&slot] {
              return static_cast<double>(
                  slot.beats.load(std::memory_order_relaxed));
            }));
      }
    }
    const auto phase_begin = [&](Phase phase) {
      mark_phase(phase);
      if (telemetry_ != nullptr) telemetry_->begin_phase(phase);
      if (driver_lane != nullptr) {
        driver_lane->record(lanes.epoch, trace::EventKind::kPhaseStart,
                            static_cast<std::uint64_t>(phase));
      }
    };
    const auto phase_end = [&](Phase phase) {
      if (driver_lane != nullptr) {
        driver_lane->record(lanes.epoch, trace::EventKind::kPhaseEnd,
                            static_cast<std::uint64_t>(phase));
      }
      if (telemetry_ != nullptr) {
        telemetry_->end_phase(phase, result.timers.seconds(phase));
      }
    };

    // ---- split ----------------------------------------------------------
    phase_begin(Phase::kSplit);
    sched::TaskQueues queues(pools_.num_groups());
    // The pump's feeder thread must never outlive the run: on any unwind
    // before finish() (a worker failure, a watchdog abort, a strategy
    // ConfigError) this scope cancels the run token and joins the feeder.
    // finish() disarms it on the success path.
    struct PumpScope {
      Pump* pump = nullptr;
      common::CancellationToken* cancel = nullptr;
      ~PumpScope() {
        if (pump == nullptr) return;
        cancel->cancel(common::CancelCause::kWorkerFailed, "split",
                       "io-lane", "run unwound before the stream finished");
        pump->cancel_and_join();
      }
      void disarm() { pump = nullptr; }
    } pump_scope;
    {
      ScopedPhase t(result.timers, Phase::kSplit);
      if constexpr (kStreaming) {
        queues.open_stream();
        StreamHooks hooks;
        hooks.queues = &queues;
        hooks.cancel = &cancel;
        hooks.injector = &injector;
        hooks.lane = io_lane;
        hooks.epoch = lanes.epoch;
        hooks.task_size = options_.task_size;
        hooks.num_groups = pools_.num_groups();
        hooks.max_retries = options_.max_task_retries;
        pump.start(hooks);
        pump_scope.pump = &pump;
        pump_scope.cancel = &cancel;
      } else if (options_.split_distribution == SplitDistribution::kBlocked) {
        queues.distribute_blocked(app.num_splits(input), options_.task_size);
      } else {
        queues.distribute(app.num_splits(input), options_.task_size);
      }
    }
    phase_end(Phase::kSplit);

    // ---- map-combine (one timed phase, strategy-defined coupling) -------
    phase_begin(Phase::kMapCombine);
    // Skew profiler only under RAMR_OBS=full; the null pointer in the
    // context keeps the emit/task hot paths at one check when off.
    std::optional<SkewProfiler> skew;
    if (pools_.config().obs == ObsLevel::kFull) {
      skew.emplace(pools_.num_mappers(), pools_.num_combiners());
    }
    MapCombineContext ctx{pools_,    queues,   lanes,
                          cancel,    injector, beats,
                          retry,     telemetry_,
                          skew ? &*skew : nullptr};
    {
      ScopedPhase t(result.timers, Phase::kMapCombine);
      strategy.map_combine(ctx, app, input, result);
    }
    phase_end(Phase::kMapCombine);
    if (skew) {
      result.skew = skew->finalize(
          [&](std::size_t m) { return beats.worker_name(m); });
    }
    result.local_pops = queues.local_pops();
    result.steals = queues.steals();
    result.task_retries = retry.retries.load();
    result.task_aborts = retry.aborts.load();
    if constexpr (kStreaming) {
      // Join the IO lane and surface its failure before anything else —
      // the feeder cancels with cause kWorkerFailed, which
      // throw_if_aborted deliberately skips (workers unwound quietly; the
      // root cause is the stored feeder exception rethrown here).
      pump_scope.disarm();
      pump.finish();
      result.io = pump.stats();
      result.io.map_waits = queues.stream_waits();
    }
    throw_if_aborted();

    // ---- reduce ---------------------------------------------------------
    if constexpr (St::kHasReduce) {
      phase_begin(Phase::kReduce);
      {
        ScopedPhase t(result.timers, Phase::kReduce);
        strategy.reduce(pools_);
      }
      phase_end(Phase::kReduce);
      throw_if_aborted();
    }

    // ---- merge: collect + optional reducer + key sort -------------------
    phase_begin(Phase::kMerge);
    {
      ScopedPhase t(result.timers, Phase::kMerge);
      // Serial on the driver thread: on a 4-CPU host, at the benchmark's
      // sizes, waking the pool costs as much as or more than the copy-out
      // and sort it would share (EXPERIMENTS.md "One serial merge for
      // every key type").
      strategy.collect(result);
      mr::apply_reducer(app, result.pairs);
      containers::sort_by_key(result.pairs);
    }
    phase_end(Phase::kMerge);
    throw_if_aborted();

    // Stamp the plan this run executed under (satellite of the adaptive
    // controller: every result now records strategy + knobs + provenance).
    {
      const RuntimeConfig& cfg = pools_.config();
      if constexpr (requires { St::kName; }) {
        result.plan.strategy = St::kName;
      }
      result.plan.ratio = cfg.mapper_combiner_ratio;
      result.plan.batch_size = cfg.batch_size;
      result.plan.queue_capacity = cfg.queue_capacity;
      result.plan.pin_policy = to_string(cfg.pin_policy);
      result.plan.source = options_.plan_source;
    }

    // Dispatch provenance: which kernel table the map loops called.
    {
      const simd::Active& sa = simd::active();
      result.dispatch.simd_path = sa.path;
      result.dispatch.isa = common::to_string(sa.isa);
    }

    // Memory high-water, stamped on every run (one syscall): the streaming
    // path's flat-memory claim is checkable from the run report.
    result.peak_rss_bytes = common::peak_rss_bytes();
    return result;
  }

  PoolSet& pools_;
  DriverOptions options_;
  trace::Recorder* recorder_ = nullptr;
  telemetry::Session* telemetry_ = nullptr;
};

}  // namespace ramr::engine
