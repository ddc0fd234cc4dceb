// A combiner's view over its assigned set of mapper queues.
//
// Paper Fig. 2: every mapper writes to its own queue; each combiner owns a
// disjoint set of queues (set size = mapper:combiner ratio). RingSet is the
// consumer-side helper that drains such a set fairly (round-robin across
// queues, batched consume per queue) and implements the termination
// protocol: "Before exiting, combine workers consume any remaining data and
// empty their assigned queues."
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "spsc/ring.hpp"

namespace ramr::spsc {

template <typename T>
class RingSet {
 public:
  explicit RingSet(std::vector<Ring<T>*> rings) : rings_(std::move(rings)) {}

  std::size_t queue_count() const { return rings_.size(); }

  // One round-robin sweep: consume up to `batch` elements from each queue.
  // Returns total elements consumed this sweep.
  template <typename F>
  std::size_t sweep(F&& f, std::size_t batch) {
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      Ring<T>& ring = *rings_[cursor_];
      cursor_ = (cursor_ + 1) % rings_.size();
      consumed += ring.consume_batch(f, batch);
    }
    return consumed;
  }

  // True when every assigned queue is closed and drained — the combiner may
  // exit. Checking closed() *before* a final emptiness check avoids the race
  // where a producer pushes then closes between our two loads.
  bool finished() const {
    for (const Ring<T>* ring : rings_) {
      if (!ring->closed() || !ring->empty()) return false;
    }
    return true;
  }

  // True when a sweep would consume something or the combiner may exit:
  // some queue holds data or every queue is closed. The idle combiner's
  // wait condition.
  bool ready() const {
    bool all_closed = true;
    for (const Ring<T>* ring : rings_) {
      if (!ring->empty()) return true;
      all_closed = all_closed && ring->closed();
    }
    return all_closed;
  }

 private:
  std::vector<Ring<T>*> rings_;
  std::size_t cursor_ = 0;
};

}  // namespace ramr::spsc
