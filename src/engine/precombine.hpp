// Mapper-side pre-combining — an extension beyond the paper.
//
// RAMR's losses (HG, LR; Figs. 8/9) are pure queue traffic: one record per
// input byte swamps the pipe when the map work is trivial. A small
// mapper-local buffer that coalesces emissions to the same key *before*
// they enter the ring trades a few mapper cycles for a large reduction in
// pipelined records — the combine function is associative and commutative
// by contract, so combining a prefix on the producer side is always legal.
//
// The buffer is a fixed open-addressing table with a bounded probe window:
//   * same key within the window  -> combine in place (no push);
//   * empty slot within the window -> claim it (no push);
//   * window full                  -> evict the slot's current record to
//                                     the ring and take its place.
// flush() drains the buffer (called at task boundaries so the pipeline
// keeps flowing, and before the ring closes).
//
// Enabled via RuntimeConfig::precombine_slots / RAMR_PRECOMBINE (0 = off,
// the paper's published behaviour).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "containers/container_traits.hpp"
#include "containers/hash_container.hpp"  // detail::mix_hash/round_up_pow2
#include "containers/key_hash.hpp"

namespace ramr::engine {

template <typename K, typename V, containers::Combiner C,
          typename Hash = containers::KeyHash<K>,
          typename KeyEq = std::equal_to<K>>
class PrecombineBuffer {
 public:
  using Record = containers::KeyValue<K, V>;
  static constexpr std::size_t kProbeWindow = 8;

  explicit PrecombineBuffer(std::size_t slots)
      : mask_(containers::detail::round_up_pow2(slots < 2 ? 2 : slots) - 1),
        slots_(mask_ + 1) {}

  std::size_t capacity() const { return slots_.size(); }
  std::size_t occupied() const { return occupied_; }
  std::size_t absorbed() const { return absorbed_; }
  std::size_t evictions() const { return evictions_; }

  // Feeds one emission through the buffer. Returns a record to forward to
  // the ring when the probe window is exhausted (the evicted entry);
  // std::nullopt when the emission was absorbed locally.
  std::optional<Record> absorb(const K& key, const V& value) {
    std::size_t i = containers::detail::mix_hash(Hash{}(key)) & mask_;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      Slot& slot = slots_[(i + probe) & mask_];
      if (!slot.used) {
        slot.used = true;
        slot.record.key = key;
        slot.record.value = C::identity();
        C::combine(slot.record.value, value);
        ++occupied_;
        return std::nullopt;
      }
      if (KeyEq{}(slot.record.key, key)) {
        C::combine(slot.record.value, value);
        ++absorbed_;
        return std::nullopt;
      }
    }
    // Window full of other keys: evict the home slot's record.
    Slot& victim = slots_[i];
    Record out = std::move(victim.record);
    victim.record.key = key;
    victim.record.value = C::identity();
    C::combine(victim.record.value, value);
    ++evictions_;
    return out;
  }

  // Drains every resident record through `push(Record&&)`.
  template <typename Push>
  void flush(Push&& push) {
    for (Slot& slot : slots_) {
      if (slot.used) {
        push(std::move(slot.record));
        slot.used = false;
      }
    }
    occupied_ = 0;
  }

 private:
  struct Slot {
    bool used = false;
    Record record{};
  };

  std::size_t mask_;
  std::vector<Slot> slots_;
  std::size_t occupied_ = 0;
  std::size_t absorbed_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace ramr::engine
