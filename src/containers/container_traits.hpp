// The intermediate-container concept both runtimes program against, and the
// key/value record type that flows through the RAMR pipeline.
//
// "Containers interface the map phase output with the reduce phase input and
// are responsible for grouping by key the emitted key-value pairs" (paper
// Sec. II). Any type satisfying IntermediateContainer can be plugged into
// either runtime — the suite apps switch between the fixed array, fixed
// hash, and regular hash variants exactly as the paper's Figs. 8-10 do.
#pragma once

#include <concepts>
#include <cstddef>
#include <utility>
#include <vector>

#include "containers/key_sort.hpp"

namespace ramr::containers {

// Anything that visits (key, value) pairs: every intermediate container,
// and MRPhi's atomic global array (which has no combiner or merge_from).
template <typename Ct>
concept PairSource = requires(const Ct& cc) {
  typename Ct::key_type;
  typename Ct::value_type;
  { cc.size() } -> std::convertible_to<std::size_t>;
  { cc.for_each([](const typename Ct::key_type&,
                   const typename Ct::value_type&) {}) };
};

template <typename Ct>
concept IntermediateContainer =
    PairSource<Ct> && requires(Ct& c, const Ct& cc,
                               const typename Ct::key_type& k,
                               const typename Ct::value_type& v) {
      typename Ct::combiner;
      { c.emit(k, v) };
      { c.merge_from(cc) };
      { c.clear() };
    };

// The record type pipelined from mappers to combiners through the SPSC
// rings. Kept as an aggregate so that trivially copyable key/value types
// make the whole record trivially copyable (the ring then moves raw bytes).
template <typename K, typename V>
struct KeyValue {
  K key;
  V value;

  bool operator==(const KeyValue&) const = default;
};

// Flattens a container into (key, value) pairs in container order (the
// merge phase sorts them afterwards); serial.
template <PairSource Ct>
std::vector<std::pair<typename Ct::key_type, typename Ct::value_type>>
to_pairs(const Ct& container) {
  std::vector<std::pair<typename Ct::key_type, typename Ct::value_type>> out;
  out.reserve(container.size());
  container.for_each([&](const auto& k, const auto& v) {
    out.emplace_back(k, v);
  });
  return out;
}

// Flattens and key-sorts — the merge phase's output representation, in the
// order engine::PhaseDriver's merge produces (serial, sort_by_key).
template <IntermediateContainer Ct>
std::vector<std::pair<typename Ct::key_type, typename Ct::value_type>>
to_sorted_pairs(const Ct& container) {
  auto out = to_pairs(container);
  sort_by_key(out);
  return out;
}

}  // namespace ramr::containers
