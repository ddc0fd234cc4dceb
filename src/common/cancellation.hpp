// Cooperative cancellation for the execution engine.
//
// The decoupled pipeline enlarges the failure surface versus a fused
// runtime: a dead combiner strands mappers on full SPSC rings, and a dead
// mapper strands combiners on open rings. One CancellationToken per run()
// gives every worker a single flag to poll at its natural scheduling points
// (task boundaries, failed pushes, drain sweeps, bounded waits) so that
// peer failure, a run deadline, or a stall verdict propagates to the whole
// pipeline promptly — not only to the workers that happen to block.
//
// Protocol: the first cancel() wins and records an attributed snapshot
// (cause, phase, worker, detail); later calls are no-ops. Workers that
// observe the flag unwind *quietly* (via CancelledError, swallowed at the
// worker-job layer) so that the pool carrying the root-cause exception is
// the only pool that reports an error — the join protocol then rethrows
// the real failure, not a secondary "cancelled" symptom.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace ramr::common {

// Why a run was cancelled; kNone means "not cancelled".
enum class CancelCause {
  kNone = 0,
  kWorkerFailed,  // a peer worker threw; its exception is the root cause
  kDeadline,      // the configured run deadline elapsed
  kStall,         // the watchdog saw an active worker make no progress
  kExternal,      // cancelled from outside the engine
};

inline const char* to_string(CancelCause cause) {
  switch (cause) {
    case CancelCause::kNone:
      return "none";
    case CancelCause::kWorkerFailed:
      return "worker-failed";
    case CancelCause::kDeadline:
      return "deadline";
    case CancelCause::kStall:
      return "stall";
    case CancelCause::kExternal:
      return "external";
  }
  return "?";
}

// Attributed snapshot of the winning cancel() call.
struct CancelState {
  CancelCause cause = CancelCause::kNone;
  std::string phase;   // "map-combine", "reduce", ... ("" = unknown)
  std::string worker;  // "mapper-2", "combiner-0", ... ("" = unknown)
  std::string detail;  // free-form: exception text, elapsed times, ...

  std::string describe() const {
    std::string s = "run cancelled (";
    s += to_string(cause);
    s += ")";
    if (!phase.empty()) s += " in phase " + phase;
    if (!worker.empty()) s += " at " + worker;
    if (!detail.empty()) s += ": " + detail;
    return s;
  }
};

class CancellationToken {
 public:
  // First call wins and returns true; the snapshot is immutable afterwards.
  // Safe to call from any thread, including cancel-vs-cancel races.
  bool cancel(CancelCause cause, std::string phase = {},
              std::string worker = {}, std::string detail = {}) {
    std::lock_guard lock(mutex_);
    if (state_.cause != CancelCause::kNone) return false;
    state_.cause = cause;
    state_.phase = std::move(phase);
    state_.worker = std::move(worker);
    state_.detail = std::move(detail);
    // Published while still holding the mutex: a reader that acquires the
    // flag and then locks the mutex is guaranteed to see the full snapshot.
    flag_.store(true, std::memory_order_release);
    return true;
  }

  // The hot-path poll: one acquire load.
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

  // Copy of the winning snapshot (cause == kNone when not cancelled).
  CancelState snapshot() const {
    std::lock_guard lock(mutex_);
    return state_;
  }

 private:
  mutable std::mutex mutex_;
  CancelState state_;
  std::atomic<bool> flag_{false};
};

// Internal control-flow exception: thrown by engine plumbing (full-ring
// push loops, injected stalls) to unwind a worker out of app code once the
// token is set. Worker-job wrappers catch it and exit *quietly* — it must
// never surface to the caller of run().
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

// The structured error run() throws when a watchdog verdict (deadline or
// stall) — rather than a worker exception — terminated the run. Carries the
// full attributed snapshot for programmatic inspection.
class AbortError : public Error {
 public:
  explicit AbortError(CancelState state)
      : Error(state.describe()), state_(std::move(state)) {}

  CancelCause cause() const { return state_.cause; }
  const std::string& phase() const { return state_.phase; }
  const std::string& worker() const { return state_.worker; }
  const CancelState& state() const { return state_; }

 private:
  CancelState state_;
};

}  // namespace ramr::common
