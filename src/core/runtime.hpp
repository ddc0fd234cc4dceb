// RAMR — the Resource-Aware MapReduce runtime (paper Sec. III, Fig. 2).
//
// The decoupled architecture, expressed as a thin configuration of the
// shared execution engine: a dual-pool engine::PoolSet (general-purpose
// mapper pool + combiner pool, placed by the pinning plan) plus the
// engine::PipelinedSpsc emit strategy (per-mapper SPSC rings drained
// concurrently by the combiner pool, with batched reads and a blocking
// full-ring wait) driven through
// engine::PhaseDriver. See engine/strategy_pipelined.hpp for the pipeline
// and failure protocols.
//
// Apps whose map already combines within the task (mr::CombinesInMap: HG,
// LR, PCA) have nothing for a combiner pool to absorb — the paper's light
// workloads, where decoupling loses (Sec. IV-E, Fig. 10). For them
// engine::lease_for picks engine::FusedCombine at compile time, on a single
// pool of engine::fused_width workers, plan source "trait"; the dual pool
// set is never built.
//
// Every other app is decided per run under the default RAMR_ADAPT=probe:
// when the input affords the probe budget (adapt::probe_affordable), run()
// hands the job to adapt::run_adaptive, which probes fused against
// pipelined on the first slices of the real input (paper Fig. 10) and
// commits the winner. The Runtime keeps each decided plan per size bucket,
// so later runs in that bucket neither probe nor read a file. Smaller
// inputs, streams and RAMR_ADAPT=off run the static dual plan.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "adapt/controller.hpp"
#include "adapt/plan_cache.hpp"
#include "common/config.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_depot.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_select.hpp"
#include "telemetry/session.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace ramr::core {

template <mr::AppSpec S>
class Runtime {
 public:
  using Container = typename S::container_type;
  using K = mr::key_type_of<S>;
  using V = mr::value_type_of<S>;
  using Record = containers::KeyValue<K, V>;

  // The config is resolved against the topology (worker counts derived from
  // the machine when left at 0) at construction, so impossible configs
  // still fail eagerly. The pools themselves are leased from a PoolDepot:
  // per-Runtime by default, or the process-wide depot when service_mode
  // (RAMR_SERVICE=1) is on, so warm pool sets survive individual Runtime
  // instances. Leasing waits for the first run, which knows the plan it
  // needs: the static path keeps its lease (threads pinned "throughout the
  // MR invocation", paper Sec. III-B), and a decided run leases per run
  // through adapt::run_adaptive.
  Runtime(topo::Topology topology, RuntimeConfig config)
      : topo_(std::move(topology)),
        base_(std::move(config)),
        cfg_(base_.resolved(topo_.num_logical())),
        depot_(cfg_.service_mode ? &engine::PoolDepot::process()
                                 : &own_depot_) {}

  const RuntimeConfig& config() const { return cfg_; }
  const topo::PinningPlan& plan() { return ensure_pools().plan(); }

  // Whether this Runtime currently holds a leased pool set, and whether
  // that lease was served warm from the depot (no thread spawn). Exposed
  // for tests and the service-amortization bench.
  bool pools_ready() const { return static_cast<bool>(lease_); }
  bool pools_warm() const { return lease_ && lease_.warm(); }

  // Optional execution tracing (see src/trace/): one lane per mapper and
  // combiner, task/drain events, phase marks. The recorder must outlive
  // every run(); pass nullptr to disable (the default).
  void set_recorder(trace::Recorder* recorder) {
    recorder_ = recorder;
    if (driver_) driver_->set_recorder(recorder);
  }

  // The telemetry session created from the config's observability knobs
  // (RAMR_OBS=metrics or full), sized to the static path's pools; nullptr
  // when it is off or before the static path first runs (a decided run
  // builds its own). Exporters read phase counters / metrics / series from
  // it after run() (see telemetry/export.hpp).
  telemetry::Session* telemetry() { return telemetry_.get(); }

  mr::result_of<S> run(const S& app, const typename S::input_type& input) {
    // A non-trait app on an input that affords the probe budget is decided
    // by the adaptive controller, which leases its own pools (the plan may
    // change the pool shape) and builds its own telemetry session sized to
    // them. Handing it this Runtime's depot and plan cache lets pool sets
    // and plans recycle across a stream of run() calls.
    if constexpr (!mr::CombinesInMap<S>) {
      if (cfg_.adapt_mode == AdaptMode::kProbe &&
          adapt::probe_affordable(cfg_, app.num_splits(input))) {
        if (!plans_) plans_.emplace(cfg_.plan_cache_path);
        return adapt::run_adaptive(topo_, base_, app, input, recorder_, {},
                                   depot_, &*plans_);
      }
    }
    engine::Strategy<S> strategy;
    ensure_pools();
    return driver_->run(strategy, app, input);
  }

  // Streaming variant (src/io/): the run is fed live by an IO-lane task
  // pump (io::StreamFeeder over a ChunkSource) instead of a materialized
  // split count. Always the static plan — the adaptive probe path replays
  // the input, which a stream cannot do. The pump must be freshly
  // constructed per call.
  template <engine::TaskPump Pump>
  mr::result_of<S> run_stream(const S& app,
                              const typename S::input_type& input,
                              Pump& pump) {
    engine::Strategy<S> strategy;
    ensure_pools();
    return driver_->run_stream(strategy, app, input, pump);
  }

 private:
  engine::PoolSet& ensure_pools() {
    if (!lease_) {
      auto [lease, dopts] = engine::lease_for<S>(*depot_, topo_, base_);
      lease_ = std::move(lease);
      engine::PoolSet& pools = lease_.pools();
      telemetry_ = telemetry::Session::from_config(
          cfg_, pools.num_mappers(), pools.num_combiners());
      driver_ = std::make_unique<engine::PhaseDriver>(pools, std::move(dopts));
      driver_->set_recorder(recorder_);
      driver_->set_telemetry(telemetry_.get());
    }
    return lease_.pools();
  }

  topo::Topology topo_;
  RuntimeConfig base_;  // as given: engine::lease_for reads it
  RuntimeConfig cfg_;
  engine::PoolDepot own_depot_;
  engine::PoolDepot* depot_;
  std::unique_ptr<telemetry::Session> telemetry_;
  engine::PoolDepot::Lease lease_;
  std::unique_ptr<engine::PhaseDriver> driver_;
  std::optional<adapt::PlanCache> plans_;  // built by the first decided run
  trace::Recorder* recorder_ = nullptr;
};

// Convenience: run an app once on the host topology. Worker counts default
// to a ratio-2 fill of the host; the OS-default policy is used so the call
// works on machines smaller than the configured thread counts.
template <mr::AppSpec S>
mr::result_of<S> run_once(const S& app, const typename S::input_type& input,
                          RuntimeConfig config = {}) {
  Runtime<S> rt(topo::host(), config);
  return rt.run(app, input);
}

}  // namespace ramr::core
