// Backoff policies for full-queue (producer) and empty-queue (consumer)
// conditions.
//
// Paper Sec. III-A, "Sleep on failed push": pushes must always eventually
// succeed (dropping or overwriting elements violates correctness), so a
// mapper facing a full queue must wait. The paper found that sleeping after
// a failed trial beats busy-waiting — the sleeping mapper frees the
// (SMT-shared) core for the combiner that must drain the queue.
//
// Every policy exposes the same surface:
//
//   bool wait()      — block/spin once; returns false when a bound stop
//                      flag is raised (cooperative cancellation), so a
//                      waiter never sleeps through a peer failure;
//   void reset()     — a successful operation happened, restart the ladder;
//   void bind(flag)  — observe a cancellation flag (usually
//                      CancellationToken::flag()); nullptr = never stop;
//   sleep_count()    — actual sleeps performed (instrumentation for the
//                      backoff ablation bench; busy-wait reports 0).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

namespace ramr::spsc {

// Architectural pause; keeps the spinning hyper-thread from starving its
// sibling and saves power. Falls back to a compiler barrier elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

namespace detail {
inline bool stop_raised(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_acquire);
}
}  // namespace detail

// Busy-wait: pure spinning with a periodic yield so that oversubscribed
// hosts (more threads than cores — always true for the modelled platforms
// run on a laptop) still make progress within a scheduling quantum.
class BusyWaitBackoff {
 public:
  bool wait() {
    if (detail::stop_raised(stop_)) return false;
    if ((++spins_ & 0x3ffU) == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
    return true;
  }
  void reset() { spins_ = 0; }
  void bind(const std::atomic<bool>* stop) { stop_ = stop; }
  std::size_t sleep_count() const { return 0; }

 private:
  const std::atomic<bool>* stop_ = nullptr;
  unsigned spins_ = 0;
};

// Sleep-on-failed-push: spin briefly (the queue usually frees space within
// a few hundred cycles), then sleep for a fixed period. This is the RAMR
// default.
class SleepBackoff {
 public:
  explicit SleepBackoff(std::chrono::microseconds sleep_period,
                        unsigned spin_limit = 64)
      : sleep_period_(sleep_period), spin_limit_(spin_limit) {}

  bool wait() {
    if (detail::stop_raised(stop_)) return false;
    if (spins_ < spin_limit_) {
      ++spins_;
      cpu_relax();
    } else {
      ++sleeps_;
      std::this_thread::sleep_for(sleep_period_);
    }
    return true;
  }
  void reset() { spins_ = 0; }
  void bind(const std::atomic<bool>* stop) { stop_ = stop; }

  // Number of actual sleeps performed since construction (instrumentation
  // for the backoff ablation bench).
  std::size_t sleep_count() const { return sleeps_; }

 private:
  std::chrono::microseconds sleep_period_;
  unsigned spin_limit_;
  const std::atomic<bool>* stop_ = nullptr;
  unsigned spins_ = 0;
  std::size_t sleeps_ = 0;
};

// Exponential, capped variant: spin briefly, then sleep starting at
// `initial` and doubling after every consecutive sleep up to `cap`. Long
// combiner outages cost far fewer wakeups than the fixed-period policy
// (each wakeup of a blocked producer steals issue slots from the SMT
// sibling the combiner needs), while short stalls still resolve at the
// initial period. reset() returns to the spin stage and the initial
// period. Selectable via RuntimeConfig::backoff / RAMR_BACKOFF=exp.
class ExponentialSleepBackoff {
 public:
  ExponentialSleepBackoff(std::chrono::microseconds initial,
                          std::chrono::microseconds cap,
                          unsigned spin_limit = 64)
      : initial_(initial), cap_(cap), current_(initial),
        spin_limit_(spin_limit) {}

  bool wait() {
    if (detail::stop_raised(stop_)) return false;
    if (spins_ < spin_limit_) {
      ++spins_;
      cpu_relax();
      return true;
    }
    ++sleeps_;
    std::this_thread::sleep_for(current_);
    current_ = current_ * 2 > cap_ ? cap_ : current_ * 2;
    return true;
  }
  void reset() {
    spins_ = 0;
    current_ = initial_;
  }
  void bind(const std::atomic<bool>* stop) { stop_ = stop; }

  std::size_t sleep_count() const { return sleeps_; }
  std::chrono::microseconds current_period() const { return current_; }

 private:
  std::chrono::microseconds initial_;
  std::chrono::microseconds cap_;
  std::chrono::microseconds current_;
  unsigned spin_limit_;
  const std::atomic<bool>* stop_ = nullptr;
  unsigned spins_ = 0;
  std::size_t sleeps_ = 0;
};

}  // namespace ramr::spsc
