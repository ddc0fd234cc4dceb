// Job model of the service layer: what a client submits (JobSpec), where a
// job is in its lifecycle (JobStatus), and what the scheduler reports back
// per job (JobReport — the service-mode analogue of one run's summary
// line, carrying the leased core set and queue/run accounting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cancellation.hpp"
#include "common/config.hpp"
#include "engine/result.hpp"

namespace ramr::service {

using JobId = std::uint64_t;

enum class JobStatus {
  kQueued,     // admitted, waiting for cores or a dispatch slot
  kRunning,    // executing on a leased core set
  kDone,       // body returned normally
  kFailed,     // body threw (deadline, worker failure, app error)
  kCancelled,  // external cancel (Scheduler::cancel or shutdown) won
  kRejected,   // admission control refused it (queue full, impossible cores)
  kShed,       // dropped from the queue by overload protection
};

inline const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kShed:
      return "shed";
  }
  return "?";
}

inline bool terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled || status == JobStatus::kRejected ||
         status == JobStatus::kShed;
}

struct JobSpec {
  std::string name;

  // Cores to lease (0 = the scheduler's fair share: total / max jobs).
  // A request beyond the topology is rejected at submission.
  std::size_t cores = 0;

  // Per-job runtime knobs; resolved against the *leased* sub-topology, so
  // worker counts left at 0 derive from the lease size, not the machine.
  RuntimeConfig config;

  // Per-job wall-clock budget forwarded to the run watchdog (0 = none).
  std::size_t deadline_ms = 0;

  // Job-level retry budget. The default inherits the scheduler's
  // Options::max_retries; any other value overrides it for this job
  // (0 = never retry this job even when the scheduler retries).
  static constexpr std::size_t kInheritRetries =
      static_cast<std::size_t>(-1);
  std::size_t max_retries = kInheritRetries;

  // Overload-shedding inputs: when the queued cost exceeds the scheduler's
  // watermark, the lowest-priority queued jobs are shed first (ties: newest
  // first). Cost is the job's admission weight (1 = one typical job).
  int priority = 0;
  std::size_t cost = 1;

  // Optional client-owned cancellation token. A token already tripped at
  // submit() makes the job terminal kCancelled without consuming a queue
  // slot or core lease; tripping it later cancels the job exactly like
  // Scheduler::cancel(id). Must outlive the job; nullptr = none.
  common::CancellationToken* cancel = nullptr;
};

struct JobReport {
  JobId id = 0;
  std::string name;
  JobStatus status = JobStatus::kQueued;

  // Stable per-job trace identity ("<name>#<id>"), matching the job's
  // track in the stitched service trace and the flight-recorder
  // post-mortems. Always stamped; only *used* by the observability plane,
  // and deliberately absent from describe() so default output is unchanged.
  std::string trace_id;

  // The disjoint core set this job ran on (empty when never dispatched).
  std::vector<std::size_t> cores;

  double queued_seconds = 0.0;  // submit -> dispatch
  double run_seconds = 0.0;     // dispatch -> terminal

  // True when the job's last run executed on a warm pool set (leased from
  // the scheduler's depot without spawning threads).
  bool warm_pools = false;

  // RunResult accounting of the job's last run (empty when it never ran).
  std::string run_summary;
  engine::PlanInfo plan;

  // Failure/rejection detail ("" when the job succeeded).
  std::string error;

  // ---- resilience accounting (all default/empty when the features are
  // off, so existing report output is unchanged) --------------------------

  // Completed run attempts (0 = never dispatched; >1 = the job retried).
  std::size_t attempts = 0;

  // Degradation-ladder steps applied across retries, in order (e.g.
  // "strategy=fused", "cores=8->4", "retry").
  std::vector<std::string> degraded_steps;

  std::string describe() const {
    std::string s = "job=" + (name.empty() ? "?" : name) +
                    " id=" + std::to_string(id) +
                    " status=" + to_string(status);
    if (!cores.empty()) {
      s += " cores=[";
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (i > 0) s += ",";
        s += std::to_string(cores[i]);
      }
      s += "]";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), " wait=%.3fs run=%.3fs", queued_seconds,
                  run_seconds);
    s += buf;
    s += std::string(" warm=") + (warm_pools ? "yes" : "no");
    if (attempts > 1) s += " attempts=" + std::to_string(attempts);
    if (!degraded_steps.empty()) {
      s += " degraded=[";
      for (std::size_t i = 0; i < degraded_steps.size(); ++i) {
        if (i > 0) s += ";";
        s += degraded_steps[i];
      }
      s += "]";
    }
    if (!error.empty()) s += " error=" + error;
    return s;
  }
};

}  // namespace ramr::service
