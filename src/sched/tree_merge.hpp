// Pool-driven tree reduction of per-worker containers for the reduce
// phase. The merge phase that follows (flatten, reducer, key sort) runs
// serially on the driver thread (engine/phase_driver.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "sched/thread_pool.hpp"

namespace ramr::sched {

// Below this many entries in total waking the pool costs more than the
// merge work it would share: the rounds run on the caller.
inline constexpr std::size_t kParallelFloor = 4096;

// Parallel tree reduction of per-thread containers: log2(count) rounds of
// pairwise merge_from, each round executed concurrently on the pool. After
// the call, containers[0] holds the combined result. Below kParallelFloor
// entries in total the rounds run on the caller. Both forms merge the same
// pairs in the same order, so the result is identical.
template <typename Container>
void parallel_tree_merge(ThreadPool& pool,
                         std::vector<Container>& containers) {
  const std::size_t count = containers.size();
  if (count < 2) return;
  std::size_t entries = 0;
  for (const Container& c : containers) entries += c.size();
  const std::size_t workers = entries < kParallelFloor ? 1 : pool.size();
  for (std::size_t stride = 1; stride < count; stride *= 2) {
    const auto round = [&](std::size_t w) {
      // A round may have more merge pairs than workers: stride over them.
      for (std::size_t dst = w * 2 * stride; dst + stride < count;
           dst += workers * 2 * stride) {
        containers[dst].merge_from(containers[dst + stride]);
      }
    };
    if (workers == 1) {
      round(0);
    } else {
      pool.run_on_all(round);
    }
  }
}

}  // namespace ramr::sched
