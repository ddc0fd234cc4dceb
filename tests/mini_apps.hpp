// Miniature AppSpec implementations shared by the runtime tests. These are
// deliberately tiny and deterministic; the real suite apps live in src/apps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "engine/app_model.hpp"

namespace ramr::testing {

// Counts values modulo `buckets` from a vector of ints. Fixed-array
// container; one split per `chunk` elements.
struct ModCountApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t, containers::CountCombiner>;

  std::size_t buckets = 16;
  std::size_t chunk = 64;

  std::size_t num_splits(const input_type& in) const {
    return (in.size() + chunk - 1) / chunk;
  }
  container_type make_container() const { return container_type(buckets); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * chunk;
    const std::size_t end = std::min(begin + chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      emit(in[i] % buckets, std::uint64_t{1});
    }
  }

  // Serial reference for equivalence checks.
  std::map<std::uint64_t, std::uint64_t> reference(
      const input_type& in) const {
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::uint64_t v : in) out[v % buckets]++;
    return out;
  }
};

// Counts words from a vector of pre-tokenised lines. Regular hash container
// with string keys (exercises non-trivially-copyable records through the
// pipeline).
struct WordCountMiniApp {
  using input_type = std::vector<std::string>;  // one line per split
  using container_type =
      containers::HashContainer<std::string, std::uint64_t,
                                containers::CountCombiner>;

  std::size_t num_splits(const input_type& in) const { return in.size(); }
  container_type make_container() const { return container_type(256); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::string& line = in[split];
    std::size_t start = 0;
    while (start < line.size()) {
      while (start < line.size() && line[start] == ' ') ++start;
      std::size_t end = start;
      while (end < line.size() && line[end] != ' ') ++end;
      if (end > start) emit(line.substr(start, end - start), std::uint64_t{1});
      start = end;
    }
  }

  std::map<std::string, std::uint64_t> reference(const input_type& in) const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& line : in) {
      std::size_t start = 0;
      while (start < line.size()) {
        while (start < line.size() && line[start] == ' ') ++start;
        std::size_t end = start;
        while (end < line.size() && line[end] != ' ') ++end;
        if (end > start) out[line.substr(start, end - start)]++;
        start = end;
      }
    }
    return out;
  }
};

// Averages values per bucket using the optional per-key reducer: map emits
// (bucket, {sum, count}) accumulators; reduce() divides through — the
// Phoenix++ reducer idiom.
struct BucketAverageApp {
  struct Acc {
    double sum = 0.0;
    std::uint64_t n = 0;
    void merge(const Acc& o) {
      sum += o.sum;
      n += o.n;
    }
  };

  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::FixedArrayContainer<Acc, containers::MergeCombiner<Acc>>;

  std::size_t buckets = 8;
  std::size_t chunk = 64;

  std::size_t num_splits(const input_type& in) const {
    return (in.size() + chunk - 1) / chunk;
  }
  container_type make_container() const { return container_type(buckets); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * chunk;
    const std::size_t end = std::min(begin + chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      emit(in[i] % buckets, Acc{static_cast<double>(in[i]), 1});
    }
  }

  // The optional reducer: finalize each bucket's accumulator to a mean.
  void reduce(const std::size_t& /*bucket*/, Acc& acc) const {
    if (acc.n > 0) acc.sum /= static_cast<double>(acc.n);
  }

  std::map<std::uint64_t, double> reference(const input_type& in) const {
    std::map<std::uint64_t, Acc> acc;
    for (std::uint64_t v : in) {
      acc[v % buckets].sum += static_cast<double>(v);
      acc[v % buckets].n += 1;
    }
    std::map<std::uint64_t, double> out;
    for (auto& [k, a] : acc) out[k] = a.sum / static_cast<double>(a.n);
    return out;
  }
};

// Deterministic inputs.
std::vector<std::uint64_t> make_numbers(std::size_t n, std::uint64_t seed);
std::vector<std::string> make_lines(std::size_t n, std::uint64_t seed);

// Compares runtime output pairs against a std::map reference.
template <typename K, typename V>
::testing::AssertionResult pairs_match(
    const std::vector<std::pair<K, V>>& pairs, const std::map<K, V>& ref) {
  if (pairs.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: got " << pairs.size() << " keys, expected "
           << ref.size();
  }
  auto it = ref.begin();
  for (std::size_t i = 0; i < pairs.size(); ++i, ++it) {
    if (pairs[i].first != it->first) {
      return ::testing::AssertionFailure()
             << "key mismatch at index " << i;
    }
    if (pairs[i].second != it->second) {
      return ::testing::AssertionFailure()
             << "value mismatch at index " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ramr::testing
