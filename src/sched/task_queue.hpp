// Per-locality-group task queues with work stealing.
//
// Paper Sec. III: "The map tasks are added in the task queues — one for each
// locality group. Map workers dequeue tasks from their local queue". A task
// is a contiguous range of input splits (task size = splits per task, a
// tuning knob). Workers prefer their own group's queue and steal from other
// groups only when local work runs out, preserving NUMA locality while
// keeping load balanced.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "spsc/doorbell.hpp"

namespace ramr::sched {

// A task: the half-open split-index range [begin, end).
struct TaskRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool operator==(const TaskRange&) const = default;
};

// Streaming-mode completion callback (see src/io/stream_input.hpp): the
// worker that finished a task reports it so the window slot the task's
// splits live in can be retired once its last task completes. Must be
// cheap and must not throw.
class TaskCompletionListener {
 public:
  virtual ~TaskCompletionListener() = default;
  virtual void on_task_complete(const TaskRange& task) noexcept = 0;
};

class TaskQueues {
 public:
  explicit TaskQueues(std::size_t num_groups);

  std::size_t num_groups() const { return queues_.size(); }

  // Enqueue a task into a group's queue (normally done once, before the map
  // phase starts). Thread-safe.
  void push(std::size_t group, TaskRange task);

  // Splits [0, num_splits) into tasks of `task_size` splits (last task may
  // be short) and deals them round-robin across groups.
  void distribute(std::size_t num_splits, std::size_t task_size);

  // Same, but gives each group one contiguous block of the split range —
  // the NUMA-faithful policy when the input was first-touched node by node
  // (a group's workers then stream their own node's memory; stealing still
  // rebalances the tail).
  void distribute_blocked(std::size_t num_splits, std::size_t task_size);

  // Dequeue for a worker of `group`: local queue first (FIFO), then steal
  // from the other groups (from the tail, classic stealing order). Returns
  // std::nullopt when every queue is empty.
  std::optional<TaskRange> pop(std::size_t group);

  // Total tasks currently enqueued (diagnostics).
  std::size_t pending() const;

  // How many pops were satisfied locally vs. by stealing (diagnostics for
  // the locality tests).
  std::size_t local_pops() const { return local_pops_.load(); }
  std::size_t steals() const { return steals_.load(); }

  // ---- streaming mode (src/io/: an IO-lane feeder pushes tasks live) ----
  //
  // Between open_stream() and close_stream() an empty pop() means "wait,
  // more tasks may arrive", not "all work done" — the mapper task loop
  // polls stream_open() to tell the cases apart and blocks in
  // wait_stream() meanwhile. close_stream() is a release store ordered
  // after the feeder's final push, so a worker that observes the closed
  // flag and then re-pops is guaranteed to see every task (see
  // drain_map_tasks in engine/emit_strategy.hpp).
  void open_stream() { stream_open_.store(true, std::memory_order_release); }
  void close_stream() {
    stream_open_.store(false, std::memory_order_release);
    stream_bell_.notify();
  }
  bool stream_open() const {
    return stream_open_.load(std::memory_order_acquire);
  }
  // Feeder side: wakes workers blocked in wait_stream() once a window's
  // tasks are pushed.
  void announce_tasks() { stream_bell_.notify(); }
  // Worker side: returns once a task is queued, the stream closed or
  // `stop()` holds, or after one bounded block (spsc::Doorbell).
  template <typename Stop>
  void wait_stream(Stop&& stop) {
    stream_bell_.wait(
        [&] { return !stream_open() || pending() > 0 || stop(); });
  }

  // Completion routing for streaming backpressure: workers call
  // notify_complete() after a task fully succeeded (map + strategy flush)
  // so the listener can release the task's window slot. Install before the
  // workers start; null (the default) keeps the call a single pointer
  // check.
  void set_completion_listener(TaskCompletionListener* listener) {
    listener_ = listener;
  }
  void notify_complete(const TaskRange& task) {
    if (listener_ != nullptr) listener_->on_task_complete(task);
  }

  // Times a worker found every queue empty while the stream was still open
  // (map compute outran the IO lane — the inverse of IoStats::io_stalls).
  std::size_t stream_waits() const { return stream_waits_.load(); }
  void note_stream_wait() {
    stream_waits_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct Queue {
    mutable std::mutex mutex;
    std::vector<TaskRange> tasks;  // FIFO from the front, steal from back
    std::size_t head = 0;          // index of next local pop
  };

  std::optional<TaskRange> pop_local(Queue& q);
  std::optional<TaskRange> pop_steal(Queue& q);

  std::vector<Queue> queues_;
  std::atomic<std::size_t> local_pops_{0};
  std::atomic<std::size_t> steals_{0};
  std::atomic<bool> stream_open_{false};
  std::atomic<std::size_t> stream_waits_{0};
  spsc::Doorbell stream_bell_;
  TaskCompletionListener* listener_ = nullptr;
};

}  // namespace ramr::sched
