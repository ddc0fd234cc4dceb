// Globally shared, atomically accessed fixed-array container — the MRPhi
// design (paper Sec. II: "due to the limited memory resources, an
// atomically-accessed global container was favored instead of thread-local
// containers").
//
// One array for ALL workers: emit() is a relaxed atomic fetch-op on the
// key's slot, so no per-thread memory or reduce-phase merging is needed —
// at the price of coherence contention on hot keys. Usable only for value
// types with a lock-free atomic fetch operation; `AtomicOp` adapts the
// combiner (kAdd covers Sum/Count, kMin/kMax the extrema combiners).
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cacheline.hpp"
#include "common/error.hpp"

namespace ramr::containers {

enum class AtomicOp { kAdd, kMin, kMax };

template <typename V, AtomicOp Op = AtomicOp::kAdd>
  requires std::is_integral_v<V>
class AtomicArrayContainer {
 public:
  using key_type = std::size_t;
  using value_type = V;

  explicit AtomicArrayContainer(std::size_t num_keys)
      : slots_(num_keys) {
    clear();
  }

  std::size_t capacity() const { return slots_.size(); }

  // Thread-safe: any number of workers may emit concurrently.
  void emit(std::size_t key, V value) {
#ifndef NDEBUG
    if (key >= slots_.size()) {
      throw CapacityError("AtomicArrayContainer: key " + std::to_string(key) +
                          " >= capacity " + std::to_string(slots_.size()));
    }
#endif
    std::atomic<V>& slot = slots_[key].value;
    if constexpr (Op == AtomicOp::kAdd) {
      slot.fetch_add(value, std::memory_order_relaxed);
    } else if constexpr (Op == AtomicOp::kMin) {
      V current = slot.load(std::memory_order_relaxed);
      while (value < current &&
             !slot.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
      }
    } else {
      V current = slot.load(std::memory_order_relaxed);
      while (current < value &&
             !slot.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
      }
    }
  }

  V at(std::size_t key) const {
    return slots_.at(key).value.load(std::memory_order_relaxed);
  }

  // Visits every slot whose value differs from the identity, in key order.
  // Only meaningful after the emitting phase quiesced.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      const V v = slots_[k].value.load(std::memory_order_relaxed);
      if (v != identity()) f(k, v);
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for_each([&n](std::size_t, V) { ++n; });
    return n;
  }

  void clear() {
    for (auto& slot : slots_) {
      slot.value.store(identity(), std::memory_order_relaxed);
    }
  }

  static constexpr V identity() {
    if constexpr (Op == AtomicOp::kAdd) {
      return V{};
    } else if constexpr (Op == AtomicOp::kMin) {
      return std::numeric_limits<V>::max();
    } else {
      return std::numeric_limits<V>::lowest();
    }
  }

 private:
  // One slot per cache line would waste memory for wide key ranges; MRPhi
  // accepts false sharing on the global array, and so do we — that IS the
  // design being reproduced.
  struct Slot {
    std::atomic<V> value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace ramr::containers
