// Fixed-capacity single-producer/single-consumer lock-free ring buffer.
//
// This is RAMR's mapper-to-combiner pipe (paper Sec. III-A). Design follows
// Lamport's wait-free SPSC queue with the two standard refinements the paper
// inherits from boost::lockfree::spsc_queue and then extends:
//
//   * head/tail live on separate cache lines, and each side keeps a *cached*
//     copy of the opposite index, refreshed only when the cached value makes
//     the operation look impossible — this removes almost all cross-core
//     coherence traffic in the steady state;
//   * static allocation (the paper: dynamic allocators scale poorly, so a
//     fixed-size queue is favored over a resizable one);
//   * batched consume (`consume_batch`): the consumer processes up to
//     `max_elements` *contiguous* elements per control-variable update,
//     which both cuts contention on the shared indices and favors spatial
//     locality (paper Sec. III-A "Batched reads", evaluated in Sec. IV-C).
//
// Memory ordering: the producer publishes with a release store to tail; the
// consumer acquires tail before reading slots, and symmetrically for head.
// A close() flag (release, set by the producer after its last push) gives
// combiners a sentinel-free termination protocol.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "common/cacheline.hpp"
#include "common/error.hpp"

namespace ramr::spsc {

// Per-side instrumentation; maintained without atomics because each side is
// touched by exactly one thread. Snapshot via Ring::producer_stats() /
// consumer_stats() after the pipeline quiesces.
struct ProducerStats {
  std::size_t pushes = 0;        // elements successfully pushed
  std::size_t failed_pushes = 0; // try_push calls that found the ring full
  std::size_t push_batches = 0;  // try_push_batch calls that pushed > 0
  std::size_t head_refreshes = 0; // acquire reloads of the consumer's head
};

struct ConsumerStats {
  std::size_t pops = 0;          // elements successfully consumed
  std::size_t failed_pops = 0;   // try_pop/consume calls that found it empty
  std::size_t batches = 0;       // consume_batch calls that consumed > 0
  std::size_t max_occupancy = 0; // high-water mark observed by the consumer
};

template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Ring<T> requires nothrow-move-constructible elements");

 public:
  // `capacity` is a minimum; rounded up to a power of two (for mask-based
  // index wrapping). One slot is *not* sacrificed: occupancy is derived from
  // monotonically increasing head/tail, so all `capacity_pow2` slots hold
  // data. Throws ConfigError for capacity < 2.
  explicit Ring(std::size_t capacity)
      : capacity_(round_up_pow2(capacity)), mask_(capacity_ - 1) {
    if (capacity < 2) {
      throw ConfigError("Ring capacity must be >= 2");
    }
    slots_ = static_cast<T*>(::operator new[](
        capacity_ * sizeof(T), std::align_val_t(alignof(T))));
  }

  ~Ring() {
    // Destroy any elements still enqueued.
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    for (std::size_t i = head; i != tail; ++i) {
      slots_[i & mask_].~T();
    }
    ::operator delete[](static_cast<void*>(slots_),
                        std::align_val_t(alignof(T)));
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t capacity() const { return capacity_; }

  // ----- producer side (exactly one thread) ------------------------------

  // Attempts to enqueue; returns false when the ring is full. Never blocks.
  // The rvalue overload leaves `value` untouched on failure, so a caller may
  // retry with the same object (the mapper's full-ring loop depends on this).
  bool try_push(T&& value) {
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.value.load(std::memory_order_acquire);
      ++producer_stats_.head_refreshes;
      if (tail - cached_head_ >= capacity_) {
        ++producer_stats_.failed_pushes;
        return false;
      }
    }
    ::new (static_cast<void*>(&slots_[tail & mask_])) T(std::move(value));
    tail_.value.store(tail + 1, std::memory_order_release);
    ++producer_stats_.pushes;
    return true;
  }

  // Batched publication — the producer-side counterpart of consume_batch
  // (paper Sec. III-A applied symmetrically): moves up to batch.size()
  // elements into the ring as at most two contiguous spans, then publishes
  // ONE release store to tail. A full block therefore costs one
  // control-variable update and at most one cached-head refresh, instead
  // of one of each per element. Returns the number of elements moved (a
  // prefix of `batch`); 0 when the ring is full (counted as one failed
  // push). Unmoved elements stay valid in `batch` — retry with
  // batch.subspan(n).
  std::size_t try_push_batch(std::span<T> batch) {
    if (batch.empty()) return 0;
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    std::size_t free_slots = capacity_ - (tail - cached_head_);
    if (free_slots < batch.size()) {
      cached_head_ = head_.value.load(std::memory_order_acquire);
      ++producer_stats_.head_refreshes;
      free_slots = capacity_ - (tail - cached_head_);
      if (free_slots == 0) {
        ++producer_stats_.failed_pushes;
        return 0;
      }
    }
    const std::size_t n =
        batch.size() < free_slots ? batch.size() : free_slots;
    const std::size_t first_index = tail & mask_;
    const std::size_t until_wrap = capacity_ - first_index;
    const std::size_t first_len = n < until_wrap ? n : until_wrap;
    for (std::size_t i = 0; i < first_len; ++i) {
      ::new (static_cast<void*>(&slots_[first_index + i]))
          T(std::move(batch[i]));
    }
    for (std::size_t i = first_len; i < n; ++i) {
      ::new (static_cast<void*>(&slots_[i - first_len]))
          T(std::move(batch[i]));
    }
    tail_.value.store(tail + n, std::memory_order_release);
    producer_stats_.pushes += n;
    ++producer_stats_.push_batches;
    return n;
  }

  bool try_push(const T& value) { return try_push(T(value)); }

  // Marks the stream complete. Must be called by the producer after its last
  // push; consumers observing closed() && empty() may terminate.
  void close() { closed_.value.store(true, std::memory_order_release); }

  const ProducerStats& producer_stats() const { return producer_stats_; }

  // ----- consumer side (exactly one thread) ------------------------------

  // Attempts to dequeue one element into `out`; false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.value.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        ++consumer_stats_.failed_pops;
        return false;
      }
      note_occupancy(cached_tail_ - head);
    }
    T& slot = slots_[head & mask_];
    out = std::move(slot);
    slot.~T();
    head_.value.store(head + 1, std::memory_order_release);
    ++consumer_stats_.pops;
    return true;
  }

  // Batched consume (paper Sec. III-A / IV-C): applies `f` to up to
  // `max_elements` already-enqueued elements as at most two contiguous
  // spans (the ring may wrap once), then publishes a single head update.
  // `f` receives `std::span<T>`; elements are destroyed after `f` returns.
  // Returns the number of elements consumed (0 when the ring is empty).
  template <typename F>
  std::size_t consume_batch(F&& f, std::size_t max_elements) {
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.value.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        ++consumer_stats_.failed_pops;
        return 0;
      }
      note_occupancy(cached_tail_ - head);
    }
    std::size_t available = cached_tail_ - head;
    if (available > max_elements) available = max_elements;
    if (available == 0) return 0;  // max_elements == 0

    const std::size_t first_index = head & mask_;
    const std::size_t until_wrap = capacity_ - first_index;
    const std::size_t first_len = available < until_wrap ? available : until_wrap;

    f(std::span<T>(&slots_[first_index], first_len));
    destroy_range(first_index, first_len);
    if (first_len < available) {
      const std::size_t second_len = available - first_len;
      f(std::span<T>(&slots_[0], second_len));
      destroy_range(0, second_len);
    }
    head_.value.store(head + available, std::memory_order_release);
    consumer_stats_.pops += available;
    ++consumer_stats_.batches;
    return available;
  }

  // True when the producer closed the stream. Pair with empty(): a consumer
  // may stop once closed() && empty() — the release/acquire on tail ensures
  // all pushes preceding close() are visible before empty() returns true.
  bool closed() const { return closed_.value.load(std::memory_order_acquire); }

  const ConsumerStats& consumer_stats() const { return consumer_stats_; }

  // ----- either side (approximate when the queue is in motion) -----------

  std::size_t size() const {
    const std::size_t tail = tail_.value.load(std::memory_order_acquire);
    const std::size_t head = head_.value.load(std::memory_order_acquire);
    return tail - head;
  }
  bool empty() const { return size() == 0; }

 private:
  static std::size_t round_up_pow2(std::size_t v) {
    if (v < 2) return 2;
    return std::bit_ceil(v);
  }

  void note_occupancy(std::size_t occupancy) {
    if (occupancy > consumer_stats_.max_occupancy) {
      consumer_stats_.max_occupancy = occupancy;
    }
  }

  void destroy_range(std::size_t first_index, std::size_t len) {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < len; ++i) {
        slots_[first_index + i].~T();
      }
    }
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  T* slots_ = nullptr;

  // Consumer-owned line: head plus the consumer's cached copy of tail.
  CacheAligned<std::atomic<std::size_t>> head_{std::size_t{0}};
  std::size_t cached_tail_ = 0;  // adjacent to head_ is fine: consumer-only
  ConsumerStats consumer_stats_{};

  // Producer-owned line: tail plus the producer's cached copy of head.
  CacheAligned<std::atomic<std::size_t>> tail_{std::size_t{0}};
  std::size_t cached_head_ = 0;
  ProducerStats producer_stats_{};

  CacheAligned<std::atomic<bool>> closed_{false};
};

}  // namespace ramr::spsc
