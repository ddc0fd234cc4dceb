#include "io/stream_feeder.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace ramr::io {

StreamFeeder::StreamFeeder(std::unique_ptr<ChunkSource> source,
                           StreamInput& input, IoConfig cfg)
    : source_(std::move(source)), input_(input), cfg_(cfg) {
  if (source_ == nullptr) {
    throw ConfigError("StreamFeeder needs a ChunkSource");
  }
  if (!source_->zero_copy()) {
    scratch_.resize(input_.depth());
  }
}

StreamFeeder::~StreamFeeder() { cancel_and_join(); }

void StreamFeeder::start(const engine::StreamHooks& hooks) {
  // Completed tasks must release their window slot: route the queues'
  // completion callback at the slot table. start() runs in the split
  // phase, before any worker pops — the plain store is safe.
  hooks.queues->set_completion_listener(&input_);
  thread_ = std::thread([this, hooks] { run(hooks); });
}

void StreamFeeder::finish() {
  if (thread_.joinable()) thread_.join();
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void StreamFeeder::cancel_and_join() noexcept {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

engine::IoStats StreamFeeder::stats() const {
  engine::IoStats s;
  s.mode = to_string(cfg_.mode);
  s.source = source_->kind();
  s.bytes_read = source_->bytes_read();
  s.windows = windows_;
  s.window_bytes = cfg_.window_bytes;
  s.depth = cfg_.depth;
  s.io_stalls = io_stalls_;
  s.io_retries = io_retries_;
  s.carry_bytes = source_->carry_bytes();
  return s;
}

void StreamFeeder::run(engine::StreamHooks hooks) {
  try {
    feed(hooks);
  } catch (...) {
    error_ = std::current_exception();
    std::string detail = "io-lane read failed";
    try {
      throw;
    } catch (const std::exception& e) {
      detail = e.what();
    } catch (...) {
    }
    // Cause kWorkerFailed: workers unwind quietly and the stored exception
    // — rethrown by finish() on the driver thread — is the root cause.
    hooks.cancel->cancel(common::CancelCause::kWorkerFailed, "map-combine",
                         "io-lane", detail);
  }
  // Always close, on success and failure alike: a release store ordered
  // after the final push, so a worker that sees the closed stream and
  // re-pops observes every task.
  hooks.queues->close_stream();
}

void StreamFeeder::feed(const engine::StreamHooks& hooks) {
  const auto stopped = [&] {
    return stop_.load(std::memory_order_acquire) || hooks.cancel->cancelled();
  };

  std::uint64_t next_window = 0;
  std::size_t group = 0;
  for (;; ++next_window) {
    // 1. Backpressure: wait for the window's slot to drain.
    if (!input_.slot_free(next_window)) {
      ++io_stalls_;
      if (hooks.lane != nullptr) {
        hooks.lane->record(hooks.epoch, trace::EventKind::kIoStall,
                           next_window);
      }
      while (!input_.slot_free(next_window)) {
        if (stopped()) return;
        input_.wait_slot(next_window, stopped);
      }
    }
    if (stopped()) return;

    // 2. Recycle: retire the window this slot held before (mmap unmaps —
    // the step that keeps the resident set flat at depth × window).
    if (std::optional<WindowData> prev = input_.take_occupant(next_window)) {
      source_->retire(*prev);
    }

    // 3. Read, through the io_read fault site; an injected transient
    // fault re-reads the same position (the site fires before the read).
    char* scratch = nullptr;
    if (!scratch_.empty()) {
      auto& buf = scratch_[next_window % scratch_.size()];
      if (buf.size() < cfg_.window_bytes) buf.resize(cfg_.window_bytes);
      scratch = buf.data();
    }
    WindowData window;
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        if (hooks.injector != nullptr) hooks.injector->on_io_read(next_window);
        window = source_->next(scratch, cfg_.window_bytes);
        break;
      } catch (const TransientError&) {
        if (attempt >= hooks.max_retries) throw;
        ++io_retries_;
      }
    }
    if (window.size == 0) break;  // end of stream

    // 4. Publish the window and push its tasks round-robin across groups.
    const std::size_t splits =
        (window.size + input_.split_bytes() - 1) / input_.split_bytes();
    const std::size_t base = static_cast<std::size_t>(next_window) *
                             input_.splits_per_window();
    input_.publish(next_window, window, splits);
    for (std::size_t s = 0; s < splits; s += hooks.task_size) {
      sched::TaskRange task{base + s,
                            base + std::min(s + hooks.task_size, splits)};
      hooks.queues->push(group, task);
      group = (group + 1) % hooks.num_groups;
    }
    hooks.queues->announce_tasks();
    ++windows_;
    if (hooks.lane != nullptr) {
      hooks.lane->record(hooks.epoch, trace::EventKind::kIoWindow,
                         next_window);
    }
  }

  // End of stream: let the workers finish (close_stream in run() happens
  // after we return — but they must see it to exit their wait loop, so
  // close here first, then drain and retire the remaining live windows).
  hooks.queues->close_stream();
  const std::uint64_t first_live =
      next_window > input_.depth()
          ? next_window - static_cast<std::uint64_t>(input_.depth())
          : 0;
  for (std::uint64_t w = first_live; w < next_window; ++w) {
    while (!input_.slot_free(w)) {
      if (stopped()) return;
      input_.wait_slot(w, stopped);
    }
    if (std::optional<WindowData> prev = input_.take_occupant(w)) {
      source_->retire(*prev);
    }
  }
}

}  // namespace ramr::io
