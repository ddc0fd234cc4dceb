// Thread-local fixed array container.
//
// Phoenix++'s default container for every suite app except Word Count: when
// the key range [0, num_keys) is known a priori (histogram buckets, matrix
// cells, cluster ids), a flat array beats any hash structure — no hash, no
// probing, perfectly regular access (paper Sec. IV-D/IV-E).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "containers/combiners.hpp"

namespace ramr::containers {

template <typename V, Combiner C>
  requires std::same_as<typename C::value_type, V>
class FixedArrayContainer {
 public:
  using key_type = std::size_t;
  using value_type = V;
  using combiner = C;

  explicit FixedArrayContainer(std::size_t num_keys)
      : values_(num_keys, C::identity()), present_(num_keys, false) {}

  std::size_t capacity() const { return values_.size(); }

  // Number of distinct keys that have received at least one emission.
  std::size_t size() const { return distinct_; }
  bool empty() const { return distinct_ == 0; }

  // Combine `v` into the slot for `key`. Bounds are the app's contract;
  // checked in debug builds only (this is the hottest path in the system).
  void emit(std::size_t key, const V& v) {
#ifndef NDEBUG
    if (key >= values_.size()) {
      throw CapacityError("FixedArrayContainer: key " + std::to_string(key) +
                          " >= capacity " + std::to_string(values_.size()));
    }
#endif
    if (!present_[key]) {
      present_[key] = true;
      ++distinct_;
    }
    C::combine(values_[key], v);
  }

  // Lookup; returns identity for never-emitted keys.
  const V& at(std::size_t key) const { return values_.at(key); }
  bool contains(std::size_t key) const {
    return key < present_.size() && present_[key];
  }

  // Visit present keys in ascending key order: f(key, value).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < values_.size(); ++k) {
      if (present_[k]) f(k, values_[k]);
    }
  }

  // Fold another container of the same shape into this one (reduce phase).
  void merge_from(const FixedArrayContainer& other) {
    if (other.values_.size() != values_.size()) {
      throw Error("FixedArrayContainer::merge_from: capacity mismatch");
    }
    for (std::size_t k = 0; k < values_.size(); ++k) {
      if (other.present_[k]) {
        if (!present_[k]) {
          present_[k] = true;
          ++distinct_;
        }
        C::combine(values_[k], other.values_[k]);
      }
    }
  }

  void clear() {
    std::fill(values_.begin(), values_.end(), C::identity());
    std::fill(present_.begin(), present_.end(), false);
    distinct_ = 0;
  }

 private:
  std::vector<V> values_;
  std::vector<bool> present_;
  std::size_t distinct_ = 0;
};

}  // namespace ramr::containers
