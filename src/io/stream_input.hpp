// StreamInput — the bounded window-slot table between the IO lane and the
// map workers.
//
// The streaming split source of the text/byte suite apps (a SplitSource,
// common/split_view.hpp): instead of one materialized window,
// split_view(global_split) resolves a split index to a byte range inside
// one of `depth` (RAMR_IO_DEPTH) live windows. Global split indexing is strided: every window owns the index
// range [w * splits_per_window, (w+1) * splits_per_window); short windows
// (the file tail, a record-snapped cut) simply publish fewer splits and
// leave the rest of their stride unused — no task ever references them.
//
// Slot protocol (the backpressure that bounds memory):
//   feeder: wait until slot_free(w) — acquire — sees the slot's
//           pending-split count at zero (wait_slot blocks on a bell the
//           last completing task rings), retire the previous occupant
//           (take_occupant),
//           read the new window, publish(w, window, splits) — release —
//           then push the window's TaskRanges;
//   worker: pops a task (the queue mutex orders the slot fields it is
//           about to read after publish), maps it, and the engine calls
//           on_task_complete — release fetch_sub of the task's split
//           count, ringing the feeder's bell when it reaches zero — once
//           the task fully succeeded.
// Slot fields other than `pending` are plain: the release publish /
// acquire poll pair plus the queue mutex are the only synchronization
// needed because exactly one thread (the feeder) ever writes them.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/split_view.hpp"
#include "io/chunk_source.hpp"
#include "io/io_config.hpp"
#include "sched/task_queue.hpp"
#include "spsc/doorbell.hpp"

namespace ramr::io {

class StreamInput : public sched::TaskCompletionListener {
 public:
  // Window memory is released (retire) while the run is still going, so
  // apps mapping over a stream emit owned keys (common/split_view.hpp).
  static constexpr bool kWindowsRetire = true;

  StreamInput(const IoConfig& cfg, std::size_t split_bytes)
      : split_bytes_(split_bytes), slots_(cfg.depth) {
    if (split_bytes_ == 0) {
      throw ConfigError("streaming split size must be at least 1 byte");
    }
    if (cfg.depth == 0) {
      throw ConfigError("streaming window depth must be at least 1");
    }
    splits_per_window_ = (cfg.window_bytes + split_bytes_ - 1) / split_bytes_;
    if (splits_per_window_ == 0) splits_per_window_ = 1;
  }
  StreamInput(const StreamInput&) = delete;
  StreamInput& operator=(const StreamInput&) = delete;

  std::size_t splits_per_window() const { return splits_per_window_; }
  std::size_t split_bytes() const { return split_bytes_; }
  std::size_t depth() const { return slots_.size(); }

  // Total splits published so far (grows while the feeder runs). Streaming
  // runs never distribute a precomputed count; this is the SplitSource
  // surface (and the count so far, for diagnostics).
  std::size_t num_splits() const {
    return published_splits_.load(std::memory_order_acquire);
  }

  // Worker side: resolve a global split index to its byte range. Only
  // valid for splits that are part of a pushed task (the feeder never
  // enqueues the unused tail of a window's stride).
  common::SplitView split_view(std::size_t split) const {
    const std::size_t w = split / splits_per_window_;
    const Slot& slot = slots_[w % slots_.size()];
    assert(slot.ordinal == w && "split resolved after its window retired");
    const std::size_t begin = (split % splits_per_window_) * split_bytes_;
    assert(begin < slot.window.size && "split outside the published window");
    const std::size_t end =
        begin + split_bytes_ < slot.window.size ? begin + split_bytes_
                                                : slot.window.size;
    return common::SplitView{slot.window.data, slot.window.size, begin, end,
                             slot.window.base_offset};
  }

  // Engine side (TaskQueues::notify_complete): a task fully succeeded;
  // release its splits so the feeder can recycle the window's slot. Tasks
  // never span windows (the feeder cuts them per window).
  void on_task_complete(const sched::TaskRange& task) noexcept override {
    const std::size_t w = task.begin / splits_per_window_;
    const std::size_t before = slots_[w % slots_.size()].pending.fetch_sub(
        task.size(), std::memory_order_release);
    if (before == task.size()) slot_drained_.notify();
  }

  // ---- feeder side (single thread, the IO lane) -------------------------

  // True when every task over the slot's current window has completed.
  bool slot_free(std::uint64_t ordinal) const {
    return slots_[ordinal % slots_.size()].pending.load(
               std::memory_order_acquire) == 0;
  }

  // Returns once slot_free(ordinal) or `stop()` holds, or after one
  // bounded block (spsc::Doorbell).
  template <typename Stop>
  void wait_slot(std::uint64_t ordinal, Stop&& stop) {
    slot_drained_.wait([&] { return slot_free(ordinal) || stop(); });
  }

  // The window previously published into this slot (to hand to
  // ChunkSource::retire), clearing the occupancy. nullopt on first use.
  std::optional<WindowData> take_occupant(std::uint64_t ordinal) {
    Slot& slot = slots_[ordinal % slots_.size()];
    if (!slot.occupied) return std::nullopt;
    slot.occupied = false;
    return slot.window;
  }

  // Install a freshly read window into its slot and arm the pending-split
  // count. Caller pushes the window's tasks afterwards.
  void publish(std::uint64_t ordinal, const WindowData& window,
               std::size_t splits) {
    Slot& slot = slots_[ordinal % slots_.size()];
    slot.window = window;
    slot.ordinal = ordinal;
    slot.occupied = true;
    slot.pending.store(splits, std::memory_order_release);
    published_splits_.fetch_add(splits, std::memory_order_release);
  }

 private:
  struct Slot {
    WindowData window;
    std::uint64_t ordinal = 0;
    bool occupied = false;
    std::atomic<std::size_t> pending{0};
  };

  std::size_t split_bytes_;
  std::size_t splits_per_window_ = 1;
  std::vector<Slot> slots_;
  std::atomic<std::size_t> published_splits_{0};
  spsc::Doorbell slot_drained_;
};

}  // namespace ramr::io
