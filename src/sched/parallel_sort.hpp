// Pool-driven parallel merge sort for the merge phase.
//
// engine::PhaseDriver sorts the final container's (key, value) pairs here
// when the keys are not strings (string keys go to containers::sort_by_key
// on the driver thread): the vector is cut into one chunk per worker,
// chunks are std::sort-ed concurrently, then pairwise in-place merges run
// in parallel rounds until one sorted range remains.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sched/thread_pool.hpp"

namespace ramr::sched {

// Below this many items (pairs to sort, entries to merge, index slots to
// collect) waking the pool costs more than the work it would share: the
// sort, the tree merge and engine::collect_pairs run on the caller.
inline constexpr std::size_t kParallelFloor = 4096;

template <typename T, typename Compare>
void parallel_sort(ThreadPool& pool, std::vector<T>& items, Compare comp) {
  const std::size_t n = items.size();
  const std::size_t workers = pool.size();
  if (n < 2) return;
  if (workers < 2 || n < kParallelFloor) {
    std::sort(items.begin(), items.end(), comp);
    return;
  }

  // Chunk boundaries: workers+1 fenceposts over [0, n].
  std::vector<std::size_t> bounds(workers + 1);
  for (std::size_t i = 0; i <= workers; ++i) {
    bounds[i] = n * i / workers;
  }

  pool.run_on_all([&](std::size_t w) {
    std::sort(items.begin() + static_cast<std::ptrdiff_t>(bounds[w]),
              items.begin() + static_cast<std::ptrdiff_t>(bounds[w + 1]),
              comp);
  });

  // Pairwise merge rounds: round r merges runs of 2^r chunks. Worker w owns
  // the merge whose left run starts at chunk index w * 2^(r+1).
  for (std::size_t width = 1; width < workers; width *= 2) {
    pool.run_on_all([&](std::size_t w) {
      const std::size_t left = w * 2 * width;
      const std::size_t mid = left + width;
      const std::size_t right = std::min(left + 2 * width, workers);
      if (mid >= workers || left >= workers) return;
      std::inplace_merge(
          items.begin() + static_cast<std::ptrdiff_t>(bounds[left]),
          items.begin() + static_cast<std::ptrdiff_t>(bounds[mid]),
          items.begin() + static_cast<std::ptrdiff_t>(bounds[right]), comp);
    });
  }
}

// Splits [0, total) into one contiguous range per worker (the same
// fencepost arithmetic as parallel_sort's chunking) and calls
// f(worker, lo, hi) concurrently on the pool. Ranges are identical across
// calls with the same (pool, total), so a count pass and a copy pass see
// the same partition. Empty ranges are skipped.
template <typename F>
void parallel_for_ranges(ThreadPool& pool, std::size_t total, F&& f) {
  if (total == 0) return;
  const std::size_t workers = pool.size();
  if (workers < 2) {
    f(std::size_t{0}, std::size_t{0}, total);
    return;
  }
  pool.run_on_all([&](std::size_t w) {
    const std::size_t lo = total * w / workers;
    const std::size_t hi = total * (w + 1) / workers;
    if (lo < hi) f(w, lo, hi);
  });
}

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
