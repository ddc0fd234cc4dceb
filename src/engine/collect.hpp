// Parallel merge-phase collection (the copy-out that precedes the key
// sort).
//
// to_pairs walks the final container serially on the driver thread; for
// wide containers (a large fixed array, a deep hash table) that single
// thread becomes the merge phase's bottleneck once the sort itself is fast
// (parallel for integer keys, a radix sort for string keys). collect_pairs
// fans the walk over the general-purpose pool in two passes over the
// container's index space:
//
//   1. count    — each worker counts the present entries in its range;
//   2. copy     — an exclusive prefix sum over the counts pre-sizes the
//                 output ONCE, then each worker copies its range into its
//                 disjoint output window.
//
// Both passes use the same fencepost partition (sched::parallel_for_ranges),
// so the concatenated output reproduces the serial for_each order exactly —
// collect results stay byte-identical to the historical path. Containers
// opt in by providing index_count()/for_each_range (RangedContainer);
// anything else falls back to the serial to_pairs.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/parallel_sort.hpp"
#include "sched/thread_pool.hpp"

namespace ramr::engine {

template <typename Ct>
concept RangedContainer = requires(const Ct& c) {
  { c.index_count() } -> std::convertible_to<std::size_t>;
  c.for_each_range(std::size_t{0}, std::size_t{0},
                   [](const typename Ct::key_type&,
                      const typename Ct::value_type&) {});
};

template <typename Ct>
std::vector<std::pair<typename Ct::key_type, typename Ct::value_type>>
collect_pairs(sched::ThreadPool& pool, const Ct& container) {
  using Pair = std::pair<typename Ct::key_type, typename Ct::value_type>;
  if constexpr (RangedContainer<Ct> &&
                std::is_default_constructible_v<Pair>) {
    const std::size_t total = container.index_count();
    const std::size_t workers = pool.size();
    if (workers >= 2 && total >= sched::kParallelFloor) {
      std::vector<std::size_t> counts(workers, 0);
      sched::parallel_for_ranges(
          pool, total, [&](std::size_t w, std::size_t lo, std::size_t hi) {
            std::size_t n = 0;
            container.for_each_range(
                lo, hi, [&](const auto&, const auto&) { ++n; });
            counts[w] = n;
          });
      std::vector<std::size_t> offsets(workers + 1, 0);
      for (std::size_t w = 0; w < workers; ++w) {
        offsets[w + 1] = offsets[w] + counts[w];
      }
      std::vector<Pair> out(offsets[workers]);
      sched::parallel_for_ranges(
          pool, total, [&](std::size_t w, std::size_t lo, std::size_t hi) {
            std::size_t at = offsets[w];
            container.for_each_range(lo, hi,
                                     [&](const auto& k, const auto& v) {
                                       out[at].first = k;
                                       out[at].second = v;
                                       ++at;
                                     });
          });
      return out;
    }
  }
  // Serial fallback: equivalent to containers::to_pairs, but spelled out
  // so containers outside the IntermediateContainer concept (the atomic
  // global array) collect through the same entry point.
  std::vector<Pair> out;
  out.reserve(container.size());
  container.for_each(
      [&](const auto& k, const auto& v) { out.emplace_back(k, v); });
  return out;
}

}  // namespace ramr::engine
