// Metis-style intermediate container (paper Sec. II related work: "Metis
// focused on the container organization and developed an efficient
// data-structure that performs adequately for most applications").
//
// The Metis design: a fixed array of hash buckets, each bucket an ordered
// structure (a b+tree in Metis; a sorted vector here) — insertion costs a
// short binary search, iteration per bucket is ordered, and unlike open
// addressing there is no global rehash, so the emit path never stalls on a
// table-wide reallocation. Included so the container comparison the paper's
// related work implies can actually be run (bench_containers).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"  // detail::mix_hash / round_up_pow2
#include "containers/key_hash.hpp"

namespace ramr::containers {

template <typename K, typename V, Combiner C, typename Hash = KeyHash<K>,
          typename KeyEq = std::equal_to<K>>
  requires std::same_as<typename C::value_type, V>
class MetisContainer {
 public:
  using key_type = K;
  using value_type = V;
  using combiner = C;

  // `expected_keys` sizes the bucket array for ~8 entries per bucket.
  explicit MetisContainer(std::size_t expected_keys) {
    const std::size_t want = (expected_keys + 7) / 8;
    buckets_.resize(detail::round_up_pow2(want < 1 ? 1 : want));
  }

  std::size_t size() const { return entries_; }
  bool empty() const { return entries_ == 0; }
  std::size_t bucket_count() const { return buckets_.size(); }

  void emit(const K& key, const V& v) {
    const std::size_t h = detail::mix_hash(Hash{}(key));
    Bucket& bucket = buckets_[h & (buckets_.size() - 1)];
    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), std::pair{h, std::cref(key)},
        [](const Entry& e, const auto& probe) {
          if (e.hash != probe.first) return e.hash < probe.first;
          return e.key < probe.second.get();
        });
    if (it != bucket.end() && it->hash == h && KeyEq{}(it->key, key)) {
      C::combine(it->value, v);
      return;
    }
    Entry entry{h, key, C::identity()};
    C::combine(entry.value, v);
    bucket.insert(it, std::move(entry));
    ++entries_;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  const V& at(const K& key) const {
    const Entry* e = find(key);
    if (e == nullptr) throw Error("MetisContainer: key not present");
    return e->value;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const Bucket& bucket : buckets_) {
      for (const Entry& e : bucket) f(e.key, e.value);
    }
  }

  void merge_from(const MetisContainer& other) {
    other.for_each([&](const K& k, const V& v) { emit(k, v); });
  }

  void clear() {
    for (Bucket& b : buckets_) b.clear();
    entries_ = 0;
  }

 private:
  struct Entry {
    std::size_t hash;
    K key;
    V value;
  };
  using Bucket = std::vector<Entry>;

  const Entry* find(const K& key) const {
    const std::size_t h = detail::mix_hash(Hash{}(key));
    const Bucket& bucket = buckets_[h & (buckets_.size() - 1)];
    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), std::pair{h, std::cref(key)},
        [](const Entry& e, const auto& probe) {
          if (e.hash != probe.first) return e.hash < probe.first;
          return e.key < probe.second.get();
        });
    if (it != bucket.end() && it->hash == h && KeyEq{}(it->key, key)) {
      return &*it;
    }
    return nullptr;
  }

  std::vector<Bucket> buckets_;
  std::size_t entries_ = 0;
};

}  // namespace ramr::containers
