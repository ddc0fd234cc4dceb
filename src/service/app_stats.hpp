// Per-app statistics for the scheduler's resilience features (an "app" is
// a JobSpec.name — one tenant workload submitted repeatedly).
//
// Two signals live here:
//
//   * an EWMA of successful run times — the per-app run-time gauge of the
//     ramr-metrics-v1 frame;
//   * a consecutive-failure streak driving a per-app circuit breaker —
//     after K final failures in a row the breaker opens and submissions
//     for the app fast-fail (kRejected) instead of burning cores on a
//     workload that is currently broken. After a cooldown the breaker
//     half-opens: the next submission is admitted as the one trial, and
//     its outcome closes the breaker (success) or re-opens it (failure).
//     Further submissions are rejected while the trial is unresolved; a
//     trial that ends without a verdict (cancelled, shed, rejected) frees
//     the slot for the next one.
//
// Not thread-safe on purpose: the Scheduler is the only writer and guards
// every call with its own mutex.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/timing.hpp"

namespace ramr::service {

class AppStats {
 public:
  enum class Breaker { kClosed, kOpen, kHalfOpen };

  struct App {
    // EWMA of successful (kDone) run times; samples counts the successes
    // folded in.
    double ewma_seconds = 0.0;
    std::size_t samples = 0;

    std::size_t consecutive_failures = 0;
    Breaker breaker = Breaker::kClosed;
    Clock::time_point open_until{};
    std::uint64_t trial_job = 0;  // half-open: the admitted trial (0 = none)
  };

  // Breaker admission check for submission `job`. Always true when the
  // breaker is disabled (k == 0) or closed. An open breaker rejects until
  // `open_until`, then transitions to half-open and admits `job` as the
  // trial; a half-open breaker admits `job` only when no trial is pending.
  bool admit(const std::string& app, std::size_t breaker_k,
             Clock::time_point now, std::uint64_t job);

  // A job of `app` reached kDone: resets the failure streak, closes the
  // breaker, and folds `run_seconds` into the EWMA (alpha = 0.3).
  void record_success(const std::string& app, double run_seconds);

  // Job `job` of `app` ended without a verdict on the app (cancelled, shed
  // or rejected). When it was the half-open trial, the slot is freed.
  void release_trial(const std::string& app, std::uint64_t job);

  // A job of `app` reached kFailed with its retry budget exhausted. Bumps
  // the streak; returns true when this failure trips the breaker open
  // (streak reached k, or a half-open trial failed).
  bool record_failure(const std::string& app, std::size_t breaker_k,
                      Clock::time_point now,
                      std::chrono::milliseconds cooldown);

  // nullptr when the app has never completed a job.
  const App* find(const std::string& app) const;

  // Full per-app view for the metrics exporter (caller holds the
  // scheduler lock, like every other accessor here).
  const std::map<std::string, App>& all() const { return apps_; }

 private:
  std::map<std::string, App> apps_;
};

}  // namespace ramr::service
