// The one key sort for merge output.
//
// The merge phase ends by ordering the final (key, value) pairs by key. For
// byte-string keys (WC's words) a comparison sort pays a char_traits
// compare per step: std::sort of one 256 KiB text's ~8 000 distinct words
// took 1.6-1.9 ms, about half of a small job. sort_by_key instead:
//   * builds one record per pair: the key's first 8 bytes as a big-endian
//     integer, zero-padded, bytes taken unsigned (char_traits<char>
//     compares them so), plus the pair's index;
//   * LSD radix-sorts the records by that prefix, one byte per pass,
//     skipping every byte on which all records agree;
//   * orders each run of tied prefixes by the full key, which settles keys
//     longer than 8 bytes, keys that are prefixes of others and embedded
//     NULs (ties between equal keys keep their input order);
//   * moves the pairs into that order in place by walking the
//     permutation's cycles, marking visited records with the index's top
//     bit.
// The prefix is monotone in the key order, so the result equals std::sort
// by `a.first < b.first`. The record buffers live for one call: nothing is
// kept between calls. Every other key type (the integer keys of HG, SM,
// KM, MM, LR and PCA) is std::sort.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "containers/key_hash.hpp"

namespace ramr::containers {

// Keys sort_by_key radix-sorts; the merge phase sorts these on the driver
// thread.
template <typename K>
concept ByteStringKey =
    std::same_as<K, std::string_view> || std::same_as<K, std::string>;

namespace detail {

// 16 bytes; the index's top bit is free for the visited mark at any n.
struct KeyRecord {
  std::uint64_t prefix;
  std::uint64_t index;
};

inline std::uint64_t load_be64(const char* p) {
  const std::uint64_t v = load_u64(p);
  return std::endian::native == std::endian::little ? __builtin_bswap64(v) : v;
}

inline std::uint64_t load_be32(const char* p) {
  const auto v = static_cast<std::uint32_t>(load_u32(p));
  return std::endian::native == std::endian::little ? __builtin_bswap32(v) : v;
}

// The first 8 bytes of `s`, big-endian, zero-padded: one 8-byte load, two
// overlapping 4-byte loads, or byte loads below 4 bytes. Never reads
// outside [data, data + size), so an empty view with a null data() reads
// nothing.
inline std::uint64_t key_prefix(std::string_view s) noexcept {
  const char* p = s.data();
  const std::size_t n = s.size();
  if (n >= 8) return load_be64(p);
  if (n >= 4) {
    return (load_be32(p) << 32) | (load_be32(p + n - 4) << (64 - 8 * n));
  }
  if (n == 0) return 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (std::uint64_t{u[0]} << 56) |
         (std::uint64_t{u[n >> 1]} << (56 - 8 * (n >> 1))) |
         (std::uint64_t{u[n - 1]} << (64 - 8 * n));
}

template <typename K, typename V>
void radix_sort_by_key(std::vector<std::pair<K, V>>& pairs) {
  constexpr std::uint64_t kVisited = std::uint64_t{1} << 63;
  const std::size_t n = pairs.size();
  auto recs = std::make_unique_for_overwrite<KeyRecord[]>(n);
  auto spare = std::make_unique_for_overwrite<KeyRecord[]>(n);

  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = key_prefix(pairs[i].first);
    recs[i] = {p, i};
    for (unsigned d = 0; d < 8; ++d) ++counts[d][(p >> (8 * d)) & 0xff];
  }

  KeyRecord* src = recs.get();
  KeyRecord* dst = spare.get();
  for (unsigned d = 0; d < 8; ++d) {
    const unsigned shift = 8 * d;
    auto& c = counts[d];
    if (c[(src[0].prefix >> shift) & 0xff] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& slot : c) sum += std::exchange(slot, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[c[(src[i].prefix >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }

  for (std::size_t lo = 0; lo < n;) {
    std::size_t hi = lo + 1;
    while (hi < n && src[hi].prefix == src[lo].prefix) ++hi;
    if (hi - lo > 1) {
      std::sort(src + lo, src + hi,
                [&](const KeyRecord& a, const KeyRecord& b) {
                  const int c = std::string_view(pairs[a.index].first)
                                    .compare(pairs[b.index].first);
                  return c != 0 ? c < 0 : a.index < b.index;
                });
    }
    lo = hi;
  }
  (src == recs.get() ? spare : recs).reset();

  // src[i].index is the pair that belongs at position i.
  for (std::size_t start = 0; start < n; ++start) {
    if (src[start].index & kVisited) continue;
    std::size_t at = start;
    std::size_t from = src[at].index;
    if (from != start) {
      std::pair<K, V> held = std::move(pairs[start]);
      while (from != start) {
        pairs[at] = std::move(pairs[from]);
        src[at].index |= kVisited;
        at = from;
        from = src[at].index;
      }
      pairs[at] = std::move(held);
    }
    src[at].index |= kVisited;
  }
}

}  // namespace detail

// Orders `pairs` as std::sort by `a.first < b.first` does. Serial.
template <typename K, typename V>
void sort_by_key(std::vector<std::pair<K, V>>& pairs) {
  if (pairs.size() < 2) return;
  if constexpr (ByteStringKey<K>) {
    detail::radix_sort_by_key(pairs);
  } else {
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
}

}  // namespace ramr::containers
