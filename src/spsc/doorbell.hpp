// Doorbell — the one blocking wait of the pipeline's hand-offs.
//
// Paper Sec. III-A, "Sleep on failed push": a mapper that finds its ring
// full must wait (pushes never drop), and it should give its core to the
// combiner that drains the ring rather than spin on it. A Doorbell does
// that without a period to tune: the waiter spins kSpins times on its
// condition, then arms the bell and blocks until a notifier rings it.
// The same wait serves every hand-off: a mapper waits on its ring for
// space, a combiner on one bell for its ring set, and the IO lane and the
// map workers on the streaming window table and task queues.
//
// Lost wakeups: the waiter arms, issues a seq_cst fence and re-checks its
// condition; the notifier publishes its state change, issues a seq_cst
// fence and loads the armed count. With both fences, either the waiter's
// re-check sees the change or the notifier sees the waiter armed, so a
// waiter never blocks through the change it waits for. The waiter holds
// the bell's mutex from arming until the condition variable releases it,
// so a notifier that saw it armed cannot signal before it blocks.
//
// Cost: a notifier pays one fence and one relaxed load while no waiter is
// armed; only then does it evaluate its wake condition and take the mutex.
// Callers ring at hand-off points (a drained batch, a task boundary,
// close), never per record.
//
// Every block is bounded by kMaxBlock, so the caller returns to its loop
// at least that often to poll its cancellation token and bump its
// heartbeat: cancellation needs no notifier, and a waiter behind a slow
// but live peer keeps beating for the stall watchdog.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace ramr::spsc {

// Architectural pause; keeps a spinning hyper-thread from starving its
// sibling. Falls back to a yield elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// The seq_cst fence both sides of a Doorbell issue. ThreadSanitizer does
// not model fences and GCC says so at every use (-Wtsan); the fence only
// orders the armed count against the waited-for state, both atomics, so
// TSan still checks every data access.
inline void seq_cst_fence() {
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}

class Doorbell {
 public:
  // Spins before arming: a hand-off usually completes within a few
  // hundred cycles, and arming costs a mutex and a fence.
  static constexpr int kSpins = 64;
  // Longest single block; the caller re-polls cancellation after it.
  static constexpr std::chrono::milliseconds kMaxBlock{1};

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  // Waiter side: returns once `ready()` holds, a notifier rang, or
  // kMaxBlock elapsed, whichever is first. `ready` must be a pure check of
  // state that notifiers publish before they call notify(). Returns true
  // when the waiter blocked (the caller counts blocking waits).
  template <typename Ready>
  bool wait(Ready&& ready) {
    for (int i = 0; i < kSpins; ++i) {
      if (ready()) return false;
      cpu_relax();
    }
    std::unique_lock lock(mutex_);
    // Writes happen under the mutex; the atomic is for notify()'s load.
    armed_.store(armed_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    seq_cst_fence();
    const bool block = !ready();
    if (block) cv_.wait_for(lock, kMaxBlock);
    armed_.store(armed_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
    return block;
  }

  // Notifier side: call after publishing the state a waiter checks.
  // Wakes an armed waiter only when `worth_waking()` holds, a check made
  // only while a waiter is armed. A notifier that skips a waiter this way
  // must call again after its next state change.
  template <typename Worth>
  void notify_if(Worth&& worth_waking) {
    seq_cst_fence();
    if (armed_.load(std::memory_order_relaxed) == 0 || !worth_waking()) {
      return;
    }
    std::lock_guard lock(mutex_);
    cv_.notify_all();
  }
  void notify() {
    notify_if([] { return true; });
  }

 private:
  std::atomic<unsigned> armed_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace ramr::spsc
