// Multi-job scheduler: a bounded JobQueue plus a dispatcher that leases
// disjoint core sets to concurrent jobs (service mode, RAMR_SERVICE).
//
// The ROADMAP north-star is a *resident* runtime serving a stream of jobs;
// this is the serving layer. One Scheduler owns
//
//   * a CoreLeaseRegistry over its topology — explicit core allocation:
//     each dispatched job gets a disjoint CPU set in proximity order, so
//     concurrent jobs never share a logical CPU;
//   * an engine::PoolDepot — the pool sets a job builds over its leased
//     sub-topology are parked warm when the job finishes, and the next job
//     on the same core set reuses them (threads alive, pins held);
//   * a FIFO queue with admission control — at most queue_depth jobs wait;
//     a submit beyond that (or asking for more cores than the topology
//     has) is rejected immediately, never silently dropped;
//   * one dispatcher thread (head-of-line FIFO: a big job at the head
//     waits for cores before later jobs dispatch — deliberate, so large
//     jobs cannot starve) and one runner thread per running job.
//
// Per-job isolation reuses the engine's cooperative-cancellation protocol:
// every job carries its own CancellationToken; Scheduler::cancel(id) trips
// it, the run watchdog forwards it into the active run (AbortError with
// cause kExternal), and neighbouring jobs — own tokens, own pools, own
// cores — are untouched. A client-owned token (JobSpec::cancel) chains
// through the same path.
//
// Resilience layer (all features default off; see ARCHITECTURE.md §13):
//
//   * job-level retry — a failed job re-enters the queue at its original
//     arrival position after an exponential backoff with deterministic
//     jitter, up to Options::max_retries / JobSpec::max_retries attempts;
//   * degradation ladder — a retry after a watchdog abort (deadline/stall)
//     or a strategy ConfigError runs under a safer plan: first forced
//     FusedCombine (no rings to back up), then half the core ask; each step
//     is recorded in JobReport::degraded_steps and the run's plan
//     provenance becomes "degraded". An mr::CombinesInMap app already runs
//     fused on a single pool, so its ladder is only the core step;
//   * circuit breaker — after breaker_k consecutive final failures of one
//     app, its submissions fast-fail (kRejected) until the breaker
//     half-opens on a timer and admits one trial (AppStats);
//   * overload shedding — when the queued admission cost exceeds
//     shed_watermark, the lowest-priority queued jobs are shed (kShed)
//     until the cost falls to watermark/2;
//   * job-boundary fault site — Options::fault_spec arms a faults::Injector
//     whose on_job_run fires before job bodies (job_run/job_p/job_fires
//     keys of RAMR_FAULTS), exercising the retry path end to end.
//
// A straggler is bounded by its deadline (JobSpec::deadline_ms): the
// watchdog aborts the run, and the ladder retries it under a safer plan.
// A job's body is released once the job is terminal, so nothing it
// captured (a typed submit's promise and result) outlives the job.
//
// Nothing here runs unless a Scheduler is constructed; the one-shot
// Runtime path is byte-identical with the subsystem unused.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"
#include "common/config.hpp"
#include "common/timing.hpp"
#include "engine/app_model.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_depot.hpp"
#include "engine/strategy_fused.hpp"
#include "engine/strategy_select.hpp"
#include "faults/injector.hpp"
#include "service/app_stats.hpp"
#include "service/job.hpp"
#include "service/lease.hpp"
#include "telemetry/metrics_export.hpp"
#include "telemetry/service_trace.hpp"
#include "telemetry/session.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace ramr::service {

// Scheduler-wide resilience counters (a snapshot; see Scheduler::stats).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;        // re-queued attempts
  std::uint64_t degraded = 0;       // ladder steps applied
  std::uint64_t breaker_trips = 0;  // closed/half-open -> open transitions
  std::uint64_t breaker_rejects = 0;
  std::uint64_t job_faults = 0;  // injected job-boundary faults

  std::string summary() const;
};

// Handed to a job's body while it runs: the leased sub-topology, the job's
// cancellation token, and run() — the way a body executes MapReduce work
// on its leased cores through the scheduler's warm pool depot.
class JobContext {
 public:
  // The job's private slice of the machine: only the leased CPUs, named
  // after them (the name reaches PoolSet::shape_key, so pool sets of
  // different core sets never alias in the depot).
  const topo::Topology& topology() const { return topo_; }
  const CoreLease& lease() const { return lease_; }

  // The job's own token; bodies doing non-MapReduce work between runs
  // should poll it and wind down when tripped.
  common::CancellationToken& cancel_token() { return *cancel_; }

  // Executes one MapReduce invocation on the leased cores. Pools are
  // leased from the scheduler's depot (warm after the first run on this
  // core set); the job's token — and the client token, when the spec set
  // one — is wired into the run as an external cancellation source, and
  // the job's deadline into the watchdog. Throws common::AbortError when
  // cancelled mid-run. A degraded retry (see the ladder above) runs under
  // FusedCombine instead of PipelinedSpsc and stamps plan source
  // "degraded". An mr::CombinesInMap app always runs under FusedCombine on
  // a single pool of engine::fused_width workers over the leased cores
  // (plan source "trait", or "degraded" on a ladder retry).
  template <mr::AppSpec S>
  mr::result_of<S> run(const S& app, const typename S::input_type& input) {
    return run_with<S>([&](engine::PhaseDriver& driver, auto& strategy) {
      return driver.run(strategy, app, input);
    });
  }

  // Streaming variant (src/io/): one MapReduce invocation fed live by an
  // IO-lane task pump instead of a materialized split count. The pump must
  // be freshly constructed for this call — a retried job body re-enters
  // run_stream and must build a new source + pump (a stream cannot be
  // rewound mid-object). Everything else (warm pools, cancellation wiring,
  // deadline, degraded-plan ladder, per-attempt trace) matches run().
  template <mr::AppSpec S, engine::TaskPump Pump>
  mr::result_of<S> run_stream(const S& app,
                              const typename S::input_type& input,
                              Pump& pump) {
    return run_with<S>([&](engine::PhaseDriver& driver, auto& strategy) {
      return driver.run_stream(strategy, app, input, pump);
    });
  }

  // True when the last run() executed on a warm pool set.
  bool warm_pools() const { return warm_; }

 private:
  // Shared attempt plumbing behind run()/run_stream(): lease warm pools,
  // wire cancellation + deadline into the driver, build the per-attempt
  // telemetry session and (under RAMR_OBS) trace recorder, pick the
  // strategy (FusedCombine for a trait app or on a degraded retry — no
  // rings to stall — PipelinedSpsc otherwise), and stamp plan/summary for
  // the job report.
  template <mr::AppSpec S, typename Invoke>
  mr::result_of<S> run_with(Invoke&& invoke) {
    combines_in_map_ = mr::CombinesInMap<S>;
    auto [lease, dopts] = engine::lease_for<S>(*depot_, topo_, cfg_);
    warm_ = lease.warm();
    engine::PoolSet& pools = lease.pools();
    dopts.external_cancel = cancel_;
    dopts.external_cancel2 = client_cancel_;
    if (deadline_ms_ > 0) dopts.deadline_ms = deadline_ms_;
    if (!plan_source_.empty()) dopts.plan_source = plan_source_;
    engine::PhaseDriver driver(pools, dopts);
    std::unique_ptr<telemetry::Session> session =
        telemetry::Session::from_config(pools.config(), pools.num_mappers(),
                                        pools.num_combiners());
    driver.set_telemetry(session.get());
    // Observability (RAMR_OBS=full): a per-attempt recorder whose lanes land
    // under this job's process in the stitched service trace, added on
    // every exit path — an aborted run's partial lanes are exactly what a
    // post-mortem wants to see.
    std::optional<trace::Recorder> recorder;
    if (service_trace_ != nullptr) recorder.emplace();
    if (recorder) driver.set_recorder(&*recorder);
    struct RunTraceScope {
      telemetry::ServiceTrace* strace;
      JobId job;
      trace::Recorder* rec;
      ~RunTraceScope() {
        if (strace != nullptr && rec != nullptr) strace->add_run(job, *rec);
      }
    } trace_scope{service_trace_, job_id_, recorder ? &*recorder : nullptr};
    mr::result_of<S> result;
    if (fused_) {
      // The degraded plan on the mapper pool of the same (dual) pool set —
      // no rings, no combiner pool to stall.
      engine::FusedCombine<S> strategy;
      result = invoke(driver, strategy);
    } else {
      engine::Strategy<S> strategy;
      result = invoke(driver, strategy);
    }
    plan_ = result.plan;
    run_summary_ = result.summary();
    return result;
  }

  friend class Scheduler;
  JobContext(topo::Topology topo, CoreLease lease, RuntimeConfig cfg,
             common::CancellationToken* cancel,
             common::CancellationToken* client_cancel,
             std::size_t deadline_ms, engine::PoolDepot* depot, bool fused,
             std::string plan_source,
             telemetry::ServiceTrace* service_trace = nullptr,
             JobId job_id = 0)
      : topo_(std::move(topo)), lease_(std::move(lease)),
        cfg_(std::move(cfg)), cancel_(cancel), client_cancel_(client_cancel),
        deadline_ms_(deadline_ms), depot_(depot), fused_(fused),
        plan_source_(std::move(plan_source)), service_trace_(service_trace),
        job_id_(job_id) {}

  topo::Topology topo_;
  CoreLease lease_;
  RuntimeConfig cfg_;
  common::CancellationToken* cancel_;
  common::CancellationToken* client_cancel_;
  std::size_t deadline_ms_;
  engine::PoolDepot* depot_;
  bool fused_;
  std::string plan_source_;
  telemetry::ServiceTrace* service_trace_ = nullptr;
  JobId job_id_ = 0;
  bool warm_ = false;
  bool combines_in_map_ = false;  // the last run's app is mr::CombinesInMap
  engine::PlanInfo plan_;
  std::string run_summary_;
};

class Scheduler {
 public:
  struct Options {
    // Concurrent-job cap; 0 = one job per socket (min 1).
    std::size_t max_concurrent_jobs = 0;

    // Jobs allowed to *wait*; a submit finding the queue at this depth is
    // rejected. Running jobs do not count against it.
    std::size_t queue_depth = 16;

    // ---- resilience knobs (all default off) ------------------------------

    // Default per-job retry budget (JobSpec::max_retries overrides).
    std::size_t max_retries = 0;

    // Retry backoff ladder: initial delay doubling per attempt up to the
    // cap, with deterministic ±25% jitter keyed by (job id, attempt).
    std::size_t retry_backoff_us = 1'000;
    std::size_t retry_backoff_cap_us = 200'000;

    // Circuit breaker: open after k consecutive final failures of one app
    // (0 = off); half-open after cooldown_ms, admitting one trial job.
    std::size_t breaker_k = 0;
    std::size_t breaker_cooldown_ms = 1'000;

    // Overload shedding: high watermark on the total queued JobSpec::cost
    // (0 = off); shedding drains to watermark / 2.
    std::size_t shed_watermark = 0;

    // Fault spec for the job-boundary injection site (job_run/job_p keys;
    // other sites in the spec are inert at this level). Empty = disabled.
    std::string fault_spec;

    // ---- observability knobs (default off; docs/OBSERVABILITY.md) --------

    // Master switch (RAMR_OBS=full): lifecycle tracing into the stitched
    // service trace, the flight recorder, the metrics sampler thread, and
    // post-mortem dumps. Off = none of it exists and the scheduler's
    // behaviour and output are byte-identical.
    bool observability = false;

    // Periodic metrics dump target (RAMR_METRICS_PATH; "" = no dump).
    // A ".prom" suffix selects Prometheus text, anything else JSON.
    std::string metrics_path;

    // Flight-recorder ring capacity (RAMR_FLIGHT_EVENTS).
    std::size_t flight_events = 256;

    // Cadence of the observability sampler thread.
    std::size_t metrics_interval_ms = 250;

    // Post-mortem dump target for the flight recorder ("" = no dumps).
    std::string postmortem_path = "ramr_postmortem.json";

    // Which of the knobs above the environment pinned (from_env fills it);
    // the flight recorder reports their source from it.
    PinnedKnobs pinned;

    // Reads RAMR_SERVICE_JOBS / RAMR_SERVICE_QUEUE plus the resilience
    // knobs RAMR_SERVICE_RETRIES / RAMR_BREAKER_K / RAMR_SHED_WATERMARK,
    // RAMR_FAULTS, and the observability knobs RAMR_OBS / RAMR_METRICS_PATH
    // / RAMR_FLIGHT_EVENTS.
    static Options from_env() {
      const RuntimeConfig cfg = RuntimeConfig::from_env();
      Options o;
      o.pinned = cfg.pinned;
      o.max_concurrent_jobs = cfg.service_max_jobs;
      o.queue_depth = cfg.service_queue_depth;
      o.max_retries = cfg.service_max_retries;
      o.breaker_k = cfg.service_breaker_k;
      o.shed_watermark = cfg.service_shed_watermark;
      o.fault_spec = cfg.fault_spec;
      o.observability = cfg.obs == ObsLevel::kFull;
      o.metrics_path = cfg.metrics_path;
      o.flight_events = cfg.flight_events;
      return o;
    }

    // The inverse of from_env: these options as the RuntimeConfig knobs
    // they mirror (every other knob at its default).
    RuntimeConfig knobs() const {
      RuntimeConfig cfg;
      cfg.service_max_jobs = max_concurrent_jobs;
      cfg.service_queue_depth = queue_depth;
      cfg.service_max_retries = max_retries;
      cfg.service_breaker_k = breaker_k;
      cfg.service_shed_watermark = shed_watermark;
      cfg.fault_spec = fault_spec;
      cfg.obs = observability ? ObsLevel::kFull : ObsLevel::kOff;
      cfg.metrics_path = metrics_path;
      cfg.flight_events = flight_events;
      cfg.pinned = pinned;
      return cfg;
    }
  };

  explicit Scheduler(topo::Topology topology)
      : Scheduler(std::move(topology), Options{}) {}
  Scheduler(topo::Topology topology, Options options);
  ~Scheduler();  // shutdown()

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Admits a job whose body runs arbitrary work (typically a loop of
  // JobContext::run calls) on the leased cores. Always returns an id;
  // admission failures surface as status kRejected on its report.
  JobId submit(JobSpec spec, std::function<void(JobContext&)> body);

  // Typed convenience: one MapReduce invocation as a job. The app and
  // input must outlive the job. The future is always fulfilled once the
  // job is terminal: with the run's result on kDone (possibly produced by
  // a retry), or with an exception describing the terminal status
  // otherwise.
  template <mr::AppSpec S>
  std::pair<JobId, std::shared_future<mr::result_of<S>>> submit(
      JobSpec spec, const S& app, const typename S::input_type& input) {
    auto promise = std::make_shared<std::promise<mr::result_of<S>>>();
    auto fulfilled = std::make_shared<std::atomic<bool>>(false);
    std::shared_future<mr::result_of<S>> future =
        promise->get_future().share();
    JobId id = submit_internal(
        std::move(spec),
        [&app, &input, promise, fulfilled](JobContext& ctx) {
          auto result = ctx.run(app, input);
          // A failed attempt threw before this point, so only a successful
          // one fulfills; the flag keeps on_terminal from fulfilling again
          // when a cancel lands after the run returned.
          if (!fulfilled->exchange(true)) {
            promise->set_value(std::move(result));
          }
        },
        [promise, fulfilled](JobStatus status, const std::string& error,
                             std::exception_ptr ep) {
          if (status == JobStatus::kDone) return;  // value already set
          if (fulfilled->exchange(true)) return;
          if (ep != nullptr) {
            promise->set_exception(std::move(ep));
          } else {
            promise->set_exception(std::make_exception_ptr(Error(
                "job " + std::string(to_string(status)) +
                (error.empty() ? "" : ": " + error))));
          }
        });
    return {id, std::move(future)};
  }

  // Trips the job's token: a queued job is cancelled in place, a running
  // one aborts cooperatively at its next poll. False when the id is
  // unknown or the job already reached a terminal status.
  bool cancel(JobId id);

  // Blocks until the job is terminal and returns its report. Throws
  // ramr::Error for unknown ids.
  JobReport wait(JobId id);

  // Report without waiting (whatever state the job is in right now).
  JobReport report(JobId id);

  // Waits for every submitted job to reach a terminal status and returns
  // all reports in submission order.
  std::vector<JobReport> drain();

  // Cancels queued and running jobs, waits for runners, stops the
  // dispatcher. Idempotent; the destructor calls it.
  void shutdown();

  const topo::Topology& topology() const { return topo_; }
  std::size_t max_concurrent_jobs() const { return max_jobs_; }
  std::size_t queue_depth() const { return opts_.queue_depth; }
  std::size_t fair_share_cores() const { return fair_share_; }

  // Snapshot of the resilience counters (includes injected job faults).
  ServiceStats stats() const;

  // The same counters as a ramr-service-stats-v1 JSON document.
  std::string stats_json() const;

  // ---- observability scrape surface (docs/OBSERVABILITY.md) --------------
  // The frame/text/json accessors work regardless of Options::observability
  // (an on-demand scrape needs no background plane); the stitched trace
  // only exists when the plane is on.

  // One consistent snapshot of queue/lease/depot/counter/per-app state.
  telemetry::ServiceMetricsFrame metrics_frame() const;

  // The snapshot in Prometheus text exposition format ("ramr_" prefix).
  std::string metrics_text() const;

  // The snapshot as a ramr-metrics-v1 JSON document.
  std::string metrics_json() const;

  // True when the observability plane is on (Options::observability).
  bool observability() const { return obs_ != nullptr; }

  // Writes the stitched Chrome/Perfetto service trace (per-job tracks +
  // core-lease timeline). Throws ramr::Error when the plane is off.
  void write_trace(std::ostream& out) const;

  // The warm-pool depot shared by this scheduler's jobs (stats for tests
  // and the amortization bench).
  engine::PoolDepot& depot() { return depot_; }

  CoreLeaseRegistry& cores() { return cores_; }

 private:
  using Body = std::function<void(JobContext&)>;
  // Invoked exactly once under mutex_ when the job turns terminal.
  using TerminalCallback =
      std::function<void(JobStatus, const std::string&, std::exception_ptr)>;

  struct Job {
    JobSpec spec;
    Body body;  // released (empty) once the job is terminal
    JobId id = 0;
    JobStatus status = JobStatus::kQueued;
    common::CancellationToken cancel;
    CoreLease lease;
    Clock::time_point submitted{};
    Clock::time_point started{};
    double queued_seconds = 0.0;
    double run_seconds = 0.0;
    bool warm = false;
    engine::PlanInfo plan;
    std::string run_summary;
    std::string error;
    std::exception_ptr error_ep;
    std::thread runner;

    // Resilience state.
    std::size_t max_retries = 0;  // resolved budget for this job
    std::size_t attempt = 0;      // completed run attempts
    std::size_t want_cores = 0;   // current core ask (ladder may halve it)
    Clock::time_point not_before{};  // backoff gate for a retried job
    std::size_t degrade_level = 0;
    bool degrade_fused = false;
    bool combines_in_map = false;  // the body ran an mr::CombinesInMap app
    std::vector<std::string> degraded_steps;
    TerminalCallback on_terminal;
  };

  JobId submit_internal(JobSpec spec, Body body, TerminalCallback on_terminal);
  void dispatch_loop();
  void run_job(const std::shared_ptr<Job>& job);

  // Observability plane (only exists when Options::observability is on):
  // stitched service trace + flight recorder + sampler thread state.
  struct Obs;
  static std::string trace_id(const Job& job);
  void obs_loop();
  void obs_sample_frame();
  void stop_obs();

  // All *_locked helpers require mutex_ held.
  void obs_event_locked(const Job& job, const char* kind,
                        const std::string& detail = {});
  void obs_postmortem_locked(const std::string& reason, const Job* job);
  telemetry::ServiceMetricsFrame metrics_frame_locked() const;
  void finish_locked(Job& job, JobStatus status, std::string error);
  void requeue_locked(const std::shared_ptr<Job>& job);
  void apply_degrade_locked(Job& job);
  void shed_locked();
  std::vector<Body> take_bodies_locked();
  std::shared_ptr<Job> first_eligible_locked(Clock::time_point t) const;
  bool backoff_pending_locked(Clock::time_point t) const;
  JobReport report_locked(const Job& job) const;
  std::vector<std::thread> grab_zombies_locked();

  topo::Topology topo_;
  Options opts_;
  std::size_t max_jobs_ = 1;
  std::size_t fair_share_ = 1;
  Clock::time_point start_time_{};
  CoreLeaseRegistry cores_;
  engine::PoolDepot depot_;
  faults::Injector injector_;
  std::unique_ptr<Obs> obs_;  // null when observability is off

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  JobId next_id_ = 1;
  std::deque<std::shared_ptr<Job>> queue_;  // id-ordered (arrival order)
  std::map<JobId, std::shared_ptr<Job>> jobs_;
  std::size_t running_ = 0;  // runner threads; counts against max_jobs_
  std::uint64_t completion_gen_ = 0;
  std::vector<std::thread> zombies_;  // finished runners awaiting join
  // Bodies of terminal jobs, moved out by finish_locked. Callers swap them
  // into a local declared before their lock, so a body's captures are
  // destroyed after mutex_ is released.
  std::vector<Body> released_bodies_;
  ServiceStats stats_;
  AppStats app_stats_;

  std::thread dispatcher_;
};

}  // namespace ramr::service
