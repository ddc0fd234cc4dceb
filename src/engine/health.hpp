// Run-health instrumentation: per-worker heartbeats and the watchdog that
// turns a hung or over-deadline run into a structured, attributed error
// instead of a forever-join.
//
// Heartbeats: one cache-line-aligned slot per worker (mappers first, then
// combiners). A worker marks itself active for the duration of the
// map-combine region and bumps its beat counter at every natural progress
// point — task start/end, every full-ring wait step of a mapper (a block
// lasts at most spsc::Doorbell::kMaxBlock), every combiner sweep (an idle
// combiner's block is bounded the same way) and every empty-stream wait
// of a streaming worker. The slots
// are written by exactly one thread each and read only by the watchdog, so
// relaxed atomics suffice.
//
// Watchdog: one thread per run() (spawned only when a deadline or stall
// bound is configured — zero cost otherwise) that ticks every few
// milliseconds and cancels the run's CancellationToken when either
//
//   * the wall-clock deadline for the whole run elapses, or
//   * an *active* worker's beat counter stays unchanged for the stall
//     window while the map-combine phase is running (stall detection is
//     per-worker: other workers making progress does not mask one stuck
//     worker, and an idle-but-polling combiner keeps beating).
//
// The stall window must exceed the longest single map split the app can
// execute — a worker inside one long app.map call beats only at task
// boundaries. Both bounds default to off.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/cancellation.hpp"
#include "common/timing.hpp"

namespace ramr::engine {

class Heartbeats {
 public:
  struct Slot {
    std::atomic<std::uint64_t> beats{0};
    std::atomic<bool> active{false};

    void bump() { beats.fetch_add(1, std::memory_order_relaxed); }
    void enter() { active.store(true, std::memory_order_relaxed); }
    void leave() { active.store(false, std::memory_order_relaxed); }
  };

  Heartbeats(std::size_t num_mappers, std::size_t num_combiners, bool dual)
      : num_mappers_(num_mappers),
        num_combiners_(num_combiners),
        dual_(dual),
        slots_(std::make_unique<CacheAligned<Slot>[]>(num_mappers +
                                                      num_combiners)) {}

  std::size_t size() const { return num_mappers_ + num_combiners_; }

  Slot& mapper(std::size_t m) { return slots_[m].value; }
  Slot& combiner(std::size_t j) { return slots_[num_mappers_ + j].value; }
  Slot& slot(std::size_t i) { return slots_[i].value; }

  // Display name for slot i: mapper-/combiner- under the dual shape,
  // worker- under the single shape (matching the trace-lane names).
  std::string worker_name(std::size_t i) const {
    if (i < num_mappers_) {
      return (dual_ ? "mapper-" : "worker-") + std::to_string(i);
    }
    return "combiner-" + std::to_string(i - num_mappers_);
  }

 private:
  std::size_t num_mappers_;
  std::size_t num_combiners_;
  bool dual_;
  std::unique_ptr<CacheAligned<Slot>[]> slots_;
};

// RAII active-marker for one worker's slot.
class ActiveScope {
 public:
  explicit ActiveScope(Heartbeats::Slot& slot) : slot_(slot) { slot_.enter(); }
  ~ActiveScope() { slot_.leave(); }
  ActiveScope(const ActiveScope&) = delete;
  ActiveScope& operator=(const ActiveScope&) = delete;

 private:
  Heartbeats::Slot& slot_;
};

class Watchdog {
 public:
  struct Options {
    std::chrono::milliseconds deadline{0};  // whole-run bound; 0 = off
    std::chrono::milliseconds stall{0};     // per-worker bound; 0 = off

    // External cancellation source (e.g. a service job's per-job token):
    // when it trips, the watchdog forwards the signal into the run's own
    // token as kExternal, so workers unwind through the same cooperative
    // protocol as a deadline or stall verdict. Must outlive the watchdog;
    // nullptr = none.
    const common::CancellationToken* forward = nullptr;

    // Second external source, same semantics, so a service job can chain
    // both the scheduler's per-job token and a client-owned token without
    // an intermediate forwarding thread (first to trip wins).
    const common::CancellationToken* forward2 = nullptr;
  };

  Watchdog(Options options, common::CancellationToken& token,
           Heartbeats& beats)
      : options_(options), token_(token), beats_(beats) {
    last_seen_.resize(beats_.size());
    last_change_.resize(beats_.size(), Clock::now());
    thread_ = std::thread([this] { loop(); });
  }

  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // The driver marks phase transitions; stall detection is armed only
  // during map-combine (the only phase whose workers beat).
  void set_phase(Phase phase) {
    phase_.store(static_cast<int>(phase), std::memory_order_release);
  }

 private:
  void loop() {
    const auto start = Clock::now();
    const auto tick = std::chrono::milliseconds(2);
    std::unique_lock lock(mutex_);
    while (!stopping_) {
      cv_.wait_for(lock, tick, [this] { return stopping_; });
      if (stopping_) return;
      const auto now = Clock::now();
      const Phase phase = static_cast<Phase>(
          phase_.load(std::memory_order_acquire));
      for (const common::CancellationToken* ext_token :
           {options_.forward, options_.forward2}) {
        if (ext_token != nullptr && ext_token->cancelled()) {
          common::CancelState ext = ext_token->snapshot();
          token_.cancel(common::CancelCause::kExternal, phase_name(phase),
                        ext.worker,
                        ext.detail.empty() ? "external cancellation"
                                           : ext.detail);
          return;
        }
      }
      if (options_.deadline.count() > 0 && now - start >= options_.deadline) {
        token_.cancel(
            common::CancelCause::kDeadline, phase_name(phase), "",
            "run deadline of " + std::to_string(options_.deadline.count()) +
                " ms exceeded");
        return;
      }
      if (options_.stall.count() > 0 && phase == Phase::kMapCombine &&
          check_stall(now)) {
        return;
      }
    }
  }

  // Returns true when a stall verdict was issued (watchdog's job is done).
  bool check_stall(Clock::time_point now) {
    for (std::size_t i = 0; i < beats_.size(); ++i) {
      Heartbeats::Slot& slot = beats_.slot(i);
      const std::uint64_t beats = slot.beats.load(std::memory_order_relaxed);
      if (!slot.active.load(std::memory_order_relaxed)) {
        // Not in the region (yet, or any more): no verdict, fresh window.
        last_seen_[i] = beats;
        last_change_[i] = now;
        continue;
      }
      if (beats != last_seen_[i]) {
        last_seen_[i] = beats;
        last_change_[i] = now;
        continue;
      }
      if (now - last_change_[i] >= options_.stall) {
        token_.cancel(
            common::CancelCause::kStall, phase_name(Phase::kMapCombine),
            beats_.worker_name(i),
            "no progress for " + std::to_string(options_.stall.count()) +
                " ms (stall watchdog)");
        return true;
      }
    }
    return false;
  }

  Options options_;
  common::CancellationToken& token_;
  Heartbeats& beats_;
  std::vector<std::uint64_t> last_seen_;
  std::vector<Clock::time_point> last_change_;
  std::atomic<int> phase_{static_cast<int>(Phase::kSplit)};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ramr::engine
