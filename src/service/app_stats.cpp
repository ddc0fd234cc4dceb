#include "service/app_stats.hpp"

namespace ramr::service {

namespace {
// Smoothing for the runtime EWMA: heavy enough that one outlier does not
// move the gauge much, light enough to track a drifting app.
constexpr double kAlpha = 0.3;
}  // namespace

bool AppStats::admit(const std::string& app, std::size_t breaker_k,
                     Clock::time_point now, std::uint64_t job) {
  if (breaker_k == 0) return true;
  auto it = apps_.find(app);
  if (it == apps_.end()) return true;
  App& a = it->second;
  switch (a.breaker) {
    case Breaker::kClosed:
      return true;
    case Breaker::kOpen:
      if (now < a.open_until) return false;
      a.breaker = Breaker::kHalfOpen;
      break;
    case Breaker::kHalfOpen:
      if (a.trial_job != 0) return false;
      break;
  }
  a.trial_job = job;  // this caller is the trial
  return true;
}

void AppStats::record_success(const std::string& app, double run_seconds) {
  App& a = apps_[app];
  a.consecutive_failures = 0;
  a.breaker = Breaker::kClosed;
  a.trial_job = 0;
  a.ewma_seconds = a.samples == 0
                       ? run_seconds
                       : kAlpha * run_seconds + (1.0 - kAlpha) * a.ewma_seconds;
  ++a.samples;
}

bool AppStats::record_failure(const std::string& app, std::size_t breaker_k,
                              Clock::time_point now,
                              std::chrono::milliseconds cooldown) {
  App& a = apps_[app];
  ++a.consecutive_failures;
  if (breaker_k == 0) return false;
  const bool trip = a.breaker == Breaker::kHalfOpen ||
                    (a.breaker == Breaker::kClosed &&
                     a.consecutive_failures >= breaker_k);
  if (trip || a.breaker == Breaker::kOpen) {
    a.breaker = Breaker::kOpen;
    a.open_until = now + cooldown;
    a.trial_job = 0;
  }
  return trip;
}

void AppStats::release_trial(const std::string& app, std::uint64_t job) {
  auto it = apps_.find(app);
  if (it != apps_.end() && it->second.trial_job == job) {
    it->second.trial_job = 0;
  }
}

const AppStats::App* AppStats::find(const std::string& app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

}  // namespace ramr::service
