// Open-addressing hash containers: fixed-size and resizable.
//
// Paper Sec. IV-D: "we replace the containers with fixed-size hash tables in
// HG, KM, LR and WC, and regular hash tables in MM and PCA. The memory
// intensity is increased due to the hash calculation, dynamic memory
// allocation for new keys and non-regular data access." Both variants share
// one open-addressing (linear probing) core; the fixed variant never
// rehashes and throws CapacityError when full, the regular variant grows at
// a 0.7 load factor.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "containers/combiners.hpp"
#include "containers/key_hash.hpp"

namespace ramr::containers {

namespace detail {

// SplitMix64 finalizer over the raw KeyHash output. Integer keys fall
// through to std::hash, which libstdc++ makes the identity; unmixed, that
// probes terribly for arithmetic key sequences.
inline std::size_t mix_hash(std::size_t h) {
  std::uint64_t z = static_cast<std::uint64_t>(h) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

// Smallest power of two >= v (1 for 0); throws CapacityError when that
// power does not fit in a size_t.
inline std::size_t round_up_pow2(std::size_t v) {
  constexpr std::size_t kTop = std::size_t{1}
                               << (std::numeric_limits<std::size_t>::digits - 1);
  if (v > kTop) {
    throw CapacityError("container sizing: " + std::to_string(v) +
                        " slots exceed the largest power of two");
  }
  return v <= 1 ? 1 : std::bit_ceil(v);
}

}  // namespace detail

// Growable = false: fixed-size hash table (never reallocates after
// construction; emit throws CapacityError once every slot is occupied).
// Growable = true: regular hash table (doubles at load factor > 0.7).
template <typename K, typename V, Combiner C, bool Growable,
          typename Hash = KeyHash<K>, typename KeyEq = std::equal_to<K>>
  requires std::same_as<typename C::value_type, V>
class OpenAddressingContainer {
 public:
  using key_type = K;
  using value_type = V;
  using combiner = C;
  static constexpr bool growable = Growable;

  // `expected_keys` sizes the table: slots = next power of two holding
  // expected_keys at <=0.7 load. For the fixed variant this is a hard
  // capacity bound on distinct keys. Throws CapacityError when that table
  // size does not fit in a size_t.
  explicit OpenAddressingContainer(std::size_t expected_keys)
      : max_keys_(expected_keys == 0 ? 1 : expected_keys) {
    if (max_keys_ > (std::numeric_limits<std::size_t>::max() - 6) / 10) {
      throw CapacityError("hash container sizing: " +
                          std::to_string(max_keys_) +
                          " expected keys overflow the slot count");
    }
    const std::size_t want =
        (max_keys_ * 10 + 6) / 7;  // ceil(expected / 0.7)
    slots_.resize(detail::round_up_pow2(want < 2 ? 2 : want));
  }

  std::size_t size() const { return occupied_; }
  bool empty() const { return occupied_ == 0; }
  std::size_t slot_count() const { return slots_.size(); }

  void emit(const K& key, const V& v) {
    if constexpr (Growable) {
      // Grow before probing so the probe below always finds a free slot.
      if ((occupied_ + 1) * 10 > slots_.size() * 7) grow();
    }
    Slot& slot = find_slot(slots_, key);
    if (!slot.used) {
      if constexpr (!Growable) {
        if (occupied_ >= max_keys_) {
          throw CapacityError(
              "fixed hash container full: " + std::to_string(max_keys_) +
              " distinct keys");
        }
      }
      slot.used = true;
      slot.key = key;
      slot.value = C::identity();
      ++occupied_;
    }
    C::combine(slot.value, v);
  }

  bool contains(const K& key) const {
    const Slot& slot = find_slot(slots_, key);
    return slot.used;
  }

  // Lookup; throws ramr::Error when absent.
  const V& at(const K& key) const {
    const Slot& slot = find_slot(slots_, key);
    if (!slot.used) throw Error("hash container: key not present");
    return slot.value;
  }

  // Visit all (key, value) pairs; iteration order is unspecified.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.used) f(slot.key, slot.value);
    }
  }

  void merge_from(const OpenAddressingContainer& other) {
    other.for_each([&](const K& k, const V& v) { emit(k, v); });
  }

  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    occupied_ = 0;
  }

 private:
  struct Slot {
    bool used = false;
    K key{};
    V value{};
  };

  template <typename Slots>
  static auto& find_slot(Slots& slots, const K& key) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = detail::mix_hash(Hash{}(key)) & mask;
    for (;;) {
      auto& slot = slots[i];
      if (!slot.used || KeyEq{}(slot.key, key)) return slot;
      i = (i + 1) & mask;
    }
  }

  void grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    for (Slot& slot : slots_) {
      if (!slot.used) continue;
      Slot& dst = find_slot(bigger, slot.key);
      dst.used = true;
      dst.key = std::move(slot.key);
      dst.value = std::move(slot.value);
    }
    slots_.swap(bigger);
  }

  std::vector<Slot> slots_;
  std::size_t occupied_ = 0;
  std::size_t max_keys_;
};

// Paper terminology aliases.
template <typename K, typename V, Combiner C, typename Hash = KeyHash<K>,
          typename KeyEq = std::equal_to<K>>
using FixedHashContainer = OpenAddressingContainer<K, V, C, false, Hash, KeyEq>;

template <typename K, typename V, Combiner C, typename Hash = KeyHash<K>,
          typename KeyEq = std::equal_to<K>>
using HashContainer = OpenAddressingContainer<K, V, C, true, Hash, KeyEq>;

}  // namespace ramr::containers
