#include "service/scheduler.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace ramr::service {

namespace {

const char* to_string(AppStats::Breaker breaker) {
  switch (breaker) {
    case AppStats::Breaker::kClosed:
      return "closed";
    case AppStats::Breaker::kOpen:
      return "open";
    case AppStats::Breaker::kHalfOpen:
      return "half-open";
  }
  return "?";
}

// The resilience counters in their canonical order, shared by stats_json
// and the metrics frame so the two surfaces can never disagree.
std::vector<std::pair<std::string, std::uint64_t>> counter_pairs(
    const ServiceStats& s) {
  return {{"submitted", s.submitted},
          {"done", s.done},
          {"failed", s.failed},
          {"cancelled", s.cancelled},
          {"rejected", s.rejected},
          {"shed", s.shed},
          {"retries", s.retries},
          {"degraded", s.degraded},
          {"breaker_trips", s.breaker_trips},
          {"breaker_rejects", s.breaker_rejects},
          {"job_faults", s.job_faults}};
}

}  // namespace

// The observability plane: one stitched trace + one flight recorder + a
// low-cadence sampler thread producing metrics frames. Exists only when
// Options::observability is on; everything the hot paths touch is a null
// check on obs_.
struct Scheduler::Obs {
  telemetry::ServiceTrace trace;
  telemetry::FlightRecorder flight;
  std::string metrics_path;
  std::string postmortem_path;
  std::size_t interval_ms = 250;

  // Last few sampler frames, kept for post-mortems (own lock: the sampler
  // appends without the scheduler mutex; finish_locked reads while holding
  // it — strictly one direction, no ordering cycle).
  std::mutex frames_mutex;
  std::deque<telemetry::ServiceMetricsFrame> frames;
  static constexpr std::size_t kMaxFrames = 8;

  std::thread sampler;
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;

  explicit Obs(std::size_t flight_events) : flight(flight_events) {}
};

std::string ServiceStats::summary() const {
  std::ostringstream os;
  os << "service_stats submitted=" << submitted << " done=" << done
     << " failed=" << failed << " cancelled=" << cancelled
     << " rejected=" << rejected << " shed=" << shed
     << " retries=" << retries << " degraded=" << degraded
     << " breaker_trips=" << breaker_trips
     << " breaker_rejects=" << breaker_rejects
     << " job_faults=" << job_faults;
  return os.str();
}

Scheduler::Scheduler(topo::Topology topology, Options options)
    : topo_(std::move(topology)), opts_(options), start_time_(now()),
      cores_(topo_), injector_(faults::FaultPlan::parse(options.fault_spec)) {
  max_jobs_ = opts_.max_concurrent_jobs != 0
                  ? opts_.max_concurrent_jobs
                  : std::max<std::size_t>(1, topo_.num_sockets());
  // Default grant when a spec leaves cores=0: an even split of the machine
  // across the concurrency cap, floored at 3 so a resolved dual shape
  // (>=1 mapper + >=1 combiner) plus one spare always fits the lease.
  fair_share_ = std::max(std::min<std::size_t>(3, cores_.total()),
                         cores_.total() / max_jobs_);
  if (opts_.observability) {
    obs_ = std::make_unique<Obs>(opts_.flight_events);
    obs_->metrics_path = opts_.metrics_path;
    obs_->postmortem_path = opts_.postmortem_path;
    obs_->interval_ms = std::max<std::size_t>(1, opts_.metrics_interval_ms);
    obs_->flight.set_config("service topo=" + topo_.name() +
                                " cores=" + std::to_string(cores_.total()) +
                                " max_jobs=" + std::to_string(max_jobs_),
                            knob_settings(opts_.knobs()));
    obs_->sampler = std::thread(&Scheduler::obs_loop, this);
  }
  dispatcher_ = std::thread(&Scheduler::dispatch_loop, this);
}

Scheduler::~Scheduler() { shutdown(); }

JobId Scheduler::submit(JobSpec spec, std::function<void(JobContext&)> body) {
  return submit_internal(std::move(spec), std::move(body), nullptr);
}

JobId Scheduler::submit_internal(JobSpec spec, Body body,
                                 TerminalCallback on_terminal) {
  std::vector<Body> released;  // destroyed after the lock is released
  std::lock_guard lock(mutex_);
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->body = std::move(body);
  job->on_terminal = std::move(on_terminal);
  job->id = next_id_++;
  job->submitted = now();
  job->max_retries = job->spec.max_retries == JobSpec::kInheritRetries
                         ? opts_.max_retries
                         : job->spec.max_retries;
  job->want_cores = job->spec.cores != 0 ? job->spec.cores : fair_share_;
  jobs_[job->id] = job;
  ++stats_.submitted;
  if (obs_ != nullptr) {
    obs_->trace.set_job_name(job->id, trace_id(*job));
    obs_->flight.record(job->id, "submit",
                        trace_id(*job) + " cores=" +
                            std::to_string(job->want_cores));
  }

  if (stopping_) {
    finish_locked(*job, JobStatus::kRejected, "scheduler is shutting down");
  } else if (job->spec.cancel != nullptr && job->spec.cancel->cancelled()) {
    // Satellite fix: a pre-tripped client token is a cancellation, not a
    // failure — and it must never reach the queue or consume a core lease.
    finish_locked(*job, JobStatus::kCancelled,
                  "client token cancelled before admission");
  } else if (job->want_cores > cores_.total()) {
    finish_locked(*job, JobStatus::kRejected,
                  "requested " + std::to_string(job->want_cores) +
                      " cores; topology has " +
                      std::to_string(cores_.total()));
  } else if (!app_stats_.admit(job->spec.name, opts_.breaker_k, now(),
                               job->id)) {
    ++stats_.breaker_rejects;
    finish_locked(*job, JobStatus::kRejected,
                  "circuit breaker " +
                      std::string(to_string(
                          app_stats_.find(job->spec.name)->breaker)) +
                      " for app '" + job->spec.name + "'");
  } else if (queue_.size() >= opts_.queue_depth) {
    finish_locked(*job, JobStatus::kRejected,
                  "queue full (depth " + std::to_string(opts_.queue_depth) +
                      ")");
  } else {
    if (obs_ != nullptr) obs_->trace.begin(job->id, "queued");
    queue_.push_back(job);
    shed_locked();
    cv_.notify_all();
  }
  released = take_bodies_locked();
  return job->id;
}

bool Scheduler::cancel(JobId id) {
  std::vector<Body> released;  // destroyed after the lock is released
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (terminal(job.status)) return false;
  job.cancel.cancel(common::CancelCause::kExternal, {}, {},
                    "cancelled by client");
  if (job.status == JobStatus::kQueued) {
    auto pos = std::find(queue_.begin(), queue_.end(), it->second);
    if (pos != queue_.end()) queue_.erase(pos);
    finish_locked(job, JobStatus::kCancelled, "cancelled while queued");
    released = take_bodies_locked();
  }
  cv_.notify_all();
  return true;
}

JobReport Scheduler::wait(JobId id) {
  std::unique_lock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("service: unknown job id " + std::to_string(id));
  }
  std::shared_ptr<Job> job = it->second;
  cv_.wait(lock, [&] { return terminal(job->status); });
  JobReport report = report_locked(*job);
  std::vector<std::thread> zombies = grab_zombies_locked();
  lock.unlock();
  for (std::thread& t : zombies) t.join();
  return report;
}

JobReport Scheduler::report(JobId id) {
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("service: unknown job id " + std::to_string(id));
  }
  return report_locked(*it->second);
}

std::vector<JobReport> Scheduler::drain() {
  std::vector<JobId> ids;
  {
    std::lock_guard lock(mutex_);
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::vector<JobReport> reports;
  reports.reserve(ids.size());
  for (JobId id : ids) reports.push_back(wait(id));
  return reports;
}

ServiceStats Scheduler::stats() const {
  std::lock_guard lock(mutex_);
  ServiceStats s = stats_;
  s.job_faults = injector_.injected();
  return s;
}

std::string Scheduler::stats_json() const {
  return telemetry::counters_json("ramr-service-stats-v1",
                                  counter_pairs(stats()));
}

telemetry::ServiceMetricsFrame Scheduler::metrics_frame_locked() const {
  telemetry::ServiceMetricsFrame frame;
  frame.uptime_seconds = seconds_between(start_time_, now());
  frame.queue_depth = queue_.size();
  frame.running = running_;
  frame.cores_total = cores_.total();
  frame.cores_leased = cores_.total() - cores_.available();
  const engine::PoolDepot::Stats depot = depot_.stats();
  frame.depot_built = depot.built;
  frame.depot_reused = depot.reused;
  frame.depot_shelved = depot.idle;
  frame.depot_leased = depot.leased;
  ServiceStats s = stats_;
  s.job_faults = injector_.injected();
  frame.counters = counter_pairs(s);
  for (const auto& [name, app] : app_stats_.all()) {
    telemetry::ServiceMetricsFrame::AppEntry entry;
    entry.name = name;
    entry.ewma_seconds = app.ewma_seconds;
    entry.samples = app.samples;
    entry.consecutive_failures = app.consecutive_failures;
    entry.breaker = to_string(app.breaker);
    frame.apps.push_back(std::move(entry));
  }
  return frame;
}

telemetry::ServiceMetricsFrame Scheduler::metrics_frame() const {
  std::lock_guard lock(mutex_);
  return metrics_frame_locked();
}

std::string Scheduler::metrics_text() const {
  return telemetry::metrics_prometheus(metrics_frame());
}

std::string Scheduler::metrics_json() const {
  return telemetry::metrics_json(metrics_frame());
}

void Scheduler::write_trace(std::ostream& out) const {
  if (obs_ == nullptr) {
    throw Error("service: observability is off (set RAMR_OBS=full)");
  }
  obs_->trace.write_chrome(out);
}

std::string Scheduler::trace_id(const Job& job) {
  return job.spec.name + "#" + std::to_string(job.id);
}

void Scheduler::obs_event_locked(const Job& job, const char* kind,
                                 const std::string& detail) {
  if (obs_ == nullptr) return;
  obs_->flight.record(job.id, kind, detail);
  obs_->trace.instant(job.id, kind, detail);
}

// One post-mortem document per trigger: flight events + config + the
// failing job's identity + counters + the last sampler frames. Runs under
// mutex_ on paths that are already exceptional; file I/O is best-effort.
void Scheduler::obs_postmortem_locked(const std::string& reason,
                                      const Job* job) {
  if (obs_ == nullptr || obs_->postmortem_path.empty()) return;
  ServiceStats s = stats_;
  s.job_faults = injector_.injected();
  std::vector<telemetry::ServiceMetricsFrame> frames;
  {
    std::lock_guard frames_lock(obs_->frames_mutex);
    frames.assign(obs_->frames.begin(), obs_->frames.end());
  }
  obs_->flight.dump_file(
      obs_->postmortem_path, reason, [&](telemetry::JsonWriter& w) {
        if (job != nullptr) {
          w.begin_object("job");
          w.field("trace_id", trace_id(*job));
          w.field("id", job->id);
          w.field("name", job->spec.name);
          w.field("status", service::to_string(job->status));
          w.field("error", job->error);
          w.field("attempts", static_cast<std::uint64_t>(job->attempt));
          w.begin_array("degraded_steps");
          for (const std::string& step : job->degraded_steps) {
            w.element(step);
          }
          w.end_array();
          w.end_object();
        }
        w.begin_object("stats");
        for (const auto& [name, value] : counter_pairs(s)) {
          w.field(name, value);
        }
        w.end_object();
        w.begin_array("recent_frames");
        for (const telemetry::ServiceMetricsFrame& f : frames) {
          w.begin_object();
          w.field("uptime_seconds", f.uptime_seconds);
          w.field("queue_depth", f.queue_depth);
          w.field("running", f.running);
          w.field("cores_leased", f.cores_leased);
          w.end_object();
        }
        w.end_array();
      });
}

void Scheduler::obs_sample_frame() {
  const telemetry::ServiceMetricsFrame frame = metrics_frame();
  obs_->trace.counter("cores_leased", static_cast<double>(frame.cores_leased));
  obs_->trace.counter("queue_depth", static_cast<double>(frame.queue_depth));
  obs_->trace.counter("running_jobs", static_cast<double>(frame.running));
  {
    std::lock_guard lock(obs_->frames_mutex);
    obs_->frames.push_back(frame);
    if (obs_->frames.size() > Obs::kMaxFrames) obs_->frames.pop_front();
  }
  if (!obs_->metrics_path.empty()) {
    try {
      std::ofstream out(obs_->metrics_path);
      if (out) {
        const bool prom =
            obs_->metrics_path.size() >= 5 &&
            obs_->metrics_path.rfind(".prom") == obs_->metrics_path.size() - 5;
        out << (prom ? telemetry::metrics_prometheus(frame)
                     : telemetry::metrics_json(frame));
      }
    } catch (...) {
      // Scrape dumps are best-effort; the next tick retries.
    }
  }
}

void Scheduler::obs_loop() {
  for (;;) {
    {
      std::unique_lock lock(obs_->stop_mutex);
      if (obs_->stop_cv.wait_for(lock,
                                 std::chrono::milliseconds(obs_->interval_ms),
                                 [&] { return obs_->stop; })) {
        break;
      }
    }
    obs_sample_frame();
  }
  obs_sample_frame();  // final frame so short-lived services still scrape
}

void Scheduler::stop_obs() {
  if (obs_ == nullptr || !obs_->sampler.joinable()) return;
  {
    std::lock_guard lock(obs_->stop_mutex);
    obs_->stop = true;
  }
  obs_->stop_cv.notify_all();
  obs_->sampler.join();
}

void Scheduler::shutdown() {
  {
    std::vector<Body> released;  // destroyed after the lock is released
    std::lock_guard lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      while (!queue_.empty()) {
        std::shared_ptr<Job> job = queue_.front();
        queue_.pop_front();
        job->cancel.cancel(common::CancelCause::kExternal, {}, {},
                           "scheduler shutdown");
        finish_locked(*job, JobStatus::kCancelled, "scheduler shutdown");
      }
      released = take_bodies_locked();
      for (auto& [id, job] : jobs_) {
        if (job->status == JobStatus::kRunning) {
          job->cancel.cancel(common::CancelCause::kExternal, {}, {},
                             "scheduler shutdown");
        }
      }
    }
    cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  std::vector<std::thread> zombies;
  {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return running_ == 0; });
    zombies = grab_zombies_locked();
  }
  for (std::thread& t : zombies) t.join();
  // Everything is quiescent now: a shutdown that leaves failed jobs
  // behind dumps one final post-mortem, then the sampler stops (its last
  // tick writes the final metrics frame).
  {
    std::lock_guard lock(mutex_);
    if (obs_ != nullptr && stats_.failed > 0) {
      // Name the most recent failed job so the dump points somewhere even
      // when the per-failure dump was overwritten.
      const Job* last_failed = nullptr;
      for (const auto& [id, j] : jobs_) {
        if (j->status == JobStatus::kFailed) last_failed = j.get();
      }
      obs_postmortem_locked("shutdown-with-failures", last_failed);
    }
  }
  stop_obs();
}

// First queued job whose retry backoff (if any) has elapsed. The queue is
// kept in arrival (id) order, so this is the head-of-line job among the
// dispatchable ones; jobs still backing off do not block the line.
std::shared_ptr<Scheduler::Job> Scheduler::first_eligible_locked(
    Clock::time_point t) const {
  for (const auto& job : queue_) {
    if (job->not_before <= t) return job;
  }
  return nullptr;
}

bool Scheduler::backoff_pending_locked(Clock::time_point t) const {
  for (const auto& job : queue_) {
    if (job->not_before > t) return true;
  }
  return false;
}

void Scheduler::dispatch_loop() {
  std::unique_lock lock(mutex_);
  const auto tick = std::chrono::milliseconds(1);
  while (true) {
    // Timed waits only while a retry backoff is about to elapse; otherwise
    // the dispatcher sleeps until submit/completion/cancel notifies.
    const bool timed = backoff_pending_locked(now());
    const auto ready = [&] {
      return stopping_ || !zombies_.empty() ||
             (running_ < max_jobs_ && first_eligible_locked(now()) != nullptr);
    };
    if (timed) {
      cv_.wait_for(lock, tick, ready);
    } else {
      cv_.wait(lock, ready);
    }
    if (!zombies_.empty()) {
      std::vector<std::thread> zombies = grab_zombies_locked();
      lock.unlock();
      for (std::thread& t : zombies) t.join();
      lock.lock();
      continue;
    }
    if (stopping_) break;

    std::shared_ptr<Job> job = first_eligible_locked(now());
    if (!job || running_ >= max_jobs_) continue;

    // A client token tripped while the job sat in the queue cancels it in
    // place — before any core lease is taken.
    if (job->spec.cancel != nullptr && job->spec.cancel->cancelled()) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      finish_locked(*job, JobStatus::kCancelled,
                    "client token cancelled while queued");
      std::vector<Body> released = take_bodies_locked();
      lock.unlock();
      released.clear();
      lock.lock();
      continue;
    }

    // Head-of-line among dispatchable jobs: this job waits for its cores
    // before anything behind it dispatches, so big jobs cannot starve.
    std::optional<CoreLease> lease = cores_.try_acquire(job->want_cores);
    if (!lease) {
      const std::uint64_t gen = completion_gen_;
      const auto cores_freed = [&] {
        return stopping_ || completion_gen_ != gen || queue_.empty();
      };
      if (timed) {
        cv_.wait_for(lock, tick, cores_freed);
      } else {
        cv_.wait(lock, cores_freed);
      }
      continue;
    }
    queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    job->lease = std::move(*lease);
    job->status = JobStatus::kRunning;
    job->started = now();
    job->queued_seconds = seconds_between(job->submitted, job->started);
    if (obs_ != nullptr) {
      obs_->trace.end(job->id, "queued");
      obs_->flight.record(job->id, "lease",
                          std::to_string(job->lease.size()) + " cores");
      obs_->trace.begin(job->id, "run");
    }
    ++running_;
    job->runner = std::thread(&Scheduler::run_job, this, job);
  }
}

void Scheduler::run_job(const std::shared_ptr<Job>& job) {
  // The job's private slice of the machine: a sub-topology of exactly the
  // leased CPUs. The lease ids go into the name so the depot's shape keys
  // of different core sets never alias.
  std::vector<topo::LogicalCpu> cpus;
  cpus.reserve(job->lease.size());
  std::string label = topo_.name() + "+lease[";
  for (std::size_t i = 0; i < job->lease.cpu_os_ids.size(); ++i) {
    const std::size_t os_id = job->lease.cpu_os_ids[i];
    cpus.push_back(topo_.by_os_id(os_id));
    if (i > 0) label += ",";
    label += std::to_string(os_id);
  }
  label += "]";

  JobContext ctx(topo::Topology(std::move(label), std::move(cpus),
                                topo_.uniform_l2()),
                 job->lease, job->spec.config, &job->cancel, job->spec.cancel,
                 job->spec.deadline_ms, &depot_, job->degrade_fused,
                 job->degrade_level > 0 ? "degraded" : "",
                 obs_ != nullptr ? &obs_->trace : nullptr, job->id);

  JobStatus status = JobStatus::kDone;
  std::string error;
  std::exception_ptr error_ep;
  bool degradable = false;
  const auto externally_cancelled = [&] {
    return job->cancel.cancelled() ||
           (job->spec.cancel != nullptr && job->spec.cancel->cancelled());
  };
  try {
    if (job->spec.cancel != nullptr && job->spec.cancel->cancelled()) {
      // Pre-tripped client token: never run the body.
      status = JobStatus::kCancelled;
      error = "client token cancelled";
    } else {
      injector_.on_job_run(job->spec.name);
      job->body(ctx);
      // A body that observed the token and returned early still counts as
      // cancelled — the client asked for the job to stop and it did.
      if (externally_cancelled()) {
        status = JobStatus::kCancelled;
        error = job->cancel.snapshot().detail;
      }
    }
  } catch (const common::AbortError& e) {
    status = externally_cancelled() ? JobStatus::kCancelled
                                    : JobStatus::kFailed;
    error = e.what();
    error_ep = std::current_exception();
    // A watchdog verdict (the run blew its deadline or stalled) is what
    // the degradation ladder exists for: retry under a safer plan.
    degradable = e.cause() == common::CancelCause::kDeadline ||
                 e.cause() == common::CancelCause::kStall;
  } catch (const ConfigError& e) {
    status = JobStatus::kFailed;
    error = e.what();
    error_ep = std::current_exception();
    degradable = true;  // strategy/plan failure: a safer plan may resolve it
  } catch (const std::exception& e) {
    status = JobStatus::kFailed;
    error = e.what();
    error_ep = std::current_exception();
  }

  // Return the cores first (a waiting head-of-line job can take them as
  // soon as the completion is published below), then publish.
  cores_.release(job->lease);

  std::unique_lock lock(mutex_);
  ++job->attempt;
  if (obs_ != nullptr) {
    obs_->trace.end(job->id, "run");
    // A watchdog verdict is worth its own flight event even when a retry
    // absorbs it (the post-mortem question is "how often does this app
    // blow its deadline", not just "did the last one").
    if (degradable && status == JobStatus::kFailed) {
      obs_event_locked(*job, "watchdog", error);
    }
  }
  job->warm = ctx.warm_;
  job->combines_in_map = ctx.combines_in_map_;
  job->plan = ctx.plan_;
  job->run_summary = ctx.run_summary_;
  job->error_ep = error_ep;

  if (status == JobStatus::kFailed && !stopping_ &&
      !job->cancel.cancelled() && job->attempt <= job->max_retries) {
    if (degradable) apply_degrade_locked(*job);
    requeue_locked(job);
    ++stats_.retries;
    obs_event_locked(*job, "retry",
                     "attempt " + std::to_string(job->attempt) + " failed: " +
                         error);
    if (obs_ != nullptr) obs_->trace.begin(job->id, "queued");
  } else {
    // The final attempt: destroy the body outside the lock and before the
    // job turns terminal, so a waiter never sees what it captured. Nothing
    // else finishes a running job, so the unlocked window is safe.
    Body body = std::exchange(job->body, nullptr);
    lock.unlock();
    body = nullptr;
    lock.lock();
    finish_locked(*job, status, std::move(error));
  }
  --running_;
  // This thread cannot join itself; park the handle for the dispatcher,
  // wait(), or shutdown() to reap.
  zombies_.push_back(std::move(job->runner));
  cv_.notify_all();
}

// Re-admission for a failed attempt with retry budget left: back into the
// queue at the job's original arrival position (the queue is id-ordered),
// gated by an exponential backoff with deterministic jitter (a
// doubling-to-cap ladder).
void Scheduler::requeue_locked(const std::shared_ptr<Job>& job) {
  const std::size_t shift =
      std::min<std::size_t>(job->attempt > 0 ? job->attempt - 1 : 0, 20);
  std::uint64_t delay_us = std::min<std::uint64_t>(
      opts_.retry_backoff_cap_us,
      static_cast<std::uint64_t>(opts_.retry_backoff_us) << shift);
  // ±25% jitter, deterministic in (job id, attempt) so reruns reproduce.
  Xoshiro256 rng(job->id * 0x9e3779b97f4a7c15ULL ^ job->attempt);
  delay_us = static_cast<std::uint64_t>(
      static_cast<double>(delay_us) * rng.uniform(0.75, 1.25));
  job->status = JobStatus::kQueued;
  job->lease = CoreLease{};
  job->not_before =
      now() + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::microseconds(delay_us));
  auto pos = std::find_if(queue_.begin(), queue_.end(),
                          [&](const std::shared_ptr<Job>& queued) {
                            return queued->id > job->id;
                          });
  queue_.insert(pos, job);
  ++completion_gen_;  // wake a head-of-line core wait to re-evaluate
  cv_.notify_all();
}

// One rung further down the graceful-degradation ladder, consumed by the
// retry that follows: pipelined -> fused, then half the core ask. Each step
// is recorded on the report. A trait app (mr::CombinesInMap) already runs
// fused, so it skips the strategy rung: it would rerun the same plan.
void Scheduler::apply_degrade_locked(Job& job) {
  ++job.degrade_level;
  ++stats_.degraded;
  if (job.combines_in_map && job.degrade_level == 1) ++job.degrade_level;
  switch (job.degrade_level) {
    case 1:
      job.degrade_fused = true;
      job.degraded_steps.push_back("strategy=fused");
      break;
    case 2: {
      const std::size_t floor_cores = std::min<std::size_t>(3, cores_.total());
      const std::size_t halved =
          std::max(floor_cores, job.want_cores / 2);
      job.degraded_steps.push_back("cores=" + std::to_string(job.want_cores) +
                                   "->" + std::to_string(halved));
      job.want_cores = halved;
      // Re-derive worker counts from the smaller lease instead of failing
      // resolution against explicit counts sized for the original lease.
      job.spec.config.num_mappers = 0;
      job.spec.config.num_combiners = 0;
      break;
    }
    default:
      // Ladder exhausted: further retries rerun the safest plan as-is.
      job.degraded_steps.push_back("retry");
      break;
  }
  obs_event_locked(job, "degrade", job.degraded_steps.back());
}

// Overload protection: when the total queued admission cost exceeds the
// high watermark, shed lowest-priority queued jobs (ties: newest first)
// until the cost reaches the low watermark (half the high one).
void Scheduler::shed_locked() {
  if (opts_.shed_watermark == 0) return;
  const auto queued_cost = [&] {
    std::size_t c = 0;
    for (const auto& job : queue_) {
      c += std::max<std::size_t>(1, job->spec.cost);
    }
    return c;
  };
  std::size_t total = queued_cost();
  if (total <= opts_.shed_watermark) return;
  const std::size_t low = std::max<std::size_t>(1, opts_.shed_watermark / 2);
  while (total > low && !queue_.empty()) {
    auto victim = queue_.begin();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->spec.priority < (*victim)->spec.priority ||
          ((*it)->spec.priority == (*victim)->spec.priority &&
           (*it)->id > (*victim)->id)) {
        victim = it;
      }
    }
    std::shared_ptr<Job> job = *victim;
    total -= std::max<std::size_t>(1, job->spec.cost);
    queue_.erase(victim);
    finish_locked(*job, JobStatus::kShed,
                  "shed: queued cost above watermark " +
                      std::to_string(opts_.shed_watermark));
  }
}

void Scheduler::finish_locked(Job& job, JobStatus status, std::string error) {
  job.status = status;
  job.error = std::move(error);
  if (job.started != Clock::time_point{}) {
    job.run_seconds = seconds_between(job.started, now());
  }

  switch (status) {
    case JobStatus::kDone:
      ++stats_.done;
      break;
    case JobStatus::kFailed:
      ++stats_.failed;
      break;
    case JobStatus::kCancelled:
      ++stats_.cancelled;
      break;
    case JobStatus::kRejected:
      ++stats_.rejected;
      break;
    case JobStatus::kShed:
      ++stats_.shed;
      break;
    default:
      break;
  }

  // App history: successes feed the run-time EWMA and close the breaker;
  // final failures (budget exhausted) advance the breaker. Cancel, shed and
  // rejection say nothing about the app's health, but a half-open trial
  // that ends so frees the trial slot for the next submission.
  bool breaker_tripped = false;
  if (status == JobStatus::kDone) {
    app_stats_.record_success(job.spec.name, job.run_seconds);
  } else if (status == JobStatus::kFailed) {
    if (app_stats_.record_failure(
            job.spec.name, opts_.breaker_k, now(),
            std::chrono::milliseconds(opts_.breaker_cooldown_ms))) {
      ++stats_.breaker_trips;
      breaker_tripped = true;
    }
  } else {
    app_stats_.release_trial(job.spec.name, job.id);
  }
  // Observability: terminal instant, breaker transition, and the
  // post-mortem triggers (job abort — which covers watchdog-fired
  // deadline/stall failures — and breaker-open).
  if (obs_ != nullptr) {
    obs_event_locked(job, service::to_string(status), job.error);
    if (breaker_tripped) {
      obs_event_locked(job, "breaker-open", "app '" + job.spec.name + "'");
    }
    if (status == JobStatus::kFailed) {
      obs_postmortem_locked(breaker_tripped ? "breaker-open" : "job-failed",
                            &job);
    }
  }

  // Fulfill the typed-submit future for non-done terminal outcomes
  // (exactly once; the callback clears itself).
  if (job.on_terminal) {
    TerminalCallback cb = std::move(job.on_terminal);
    job.on_terminal = nullptr;
    cb(job.status, job.error, job.error_ep);
  }
  // Nothing runs the body again: release what it captured (a typed
  // submit's promise holds the whole result). The caller destroys it after
  // unlocking; run_job has already destroyed the body of a job that ran.
  if (job.body) released_bodies_.push_back(std::exchange(job.body, nullptr));

  ++completion_gen_;
  cv_.notify_all();
}

JobReport Scheduler::report_locked(const Job& job) const {
  JobReport report;
  report.id = job.id;
  report.name = job.spec.name;
  report.trace_id = trace_id(job);
  report.status = job.status;
  report.cores = job.lease.cpu_os_ids;
  report.queued_seconds = job.queued_seconds;
  report.run_seconds = job.run_seconds;
  report.warm_pools = job.warm;
  report.run_summary = job.run_summary;
  report.plan = job.plan;
  report.error = job.error;
  report.attempts = job.attempt;
  report.degraded_steps = job.degraded_steps;
  return report;
}

std::vector<Scheduler::Body> Scheduler::take_bodies_locked() {
  std::vector<Body> bodies;
  bodies.swap(released_bodies_);
  return bodies;
}

std::vector<std::thread> Scheduler::grab_zombies_locked() {
  std::vector<std::thread> zombies;
  zombies.swap(zombies_);
  return zombies;
}

}  // namespace ramr::service
