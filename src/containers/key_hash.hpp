// The one hash for intermediate keys.
//
// Every consumer that hashes an intermediate key (the open-addressing and
// Metis containers, the skew profiler's sketch) defaults to KeyHash<K>
// and then runs the result through its own SplitMix64 finalizer. Key
// equality, never the hash, decides every match.
//
// String keys are why this exists. WC's keys average under 6 bytes, and
// libstdc++'s std::hash<std::string_view> is an out-of-line call into
// _Hash_bytes: on wc-zipf it was about two thirds of each combiner insert.
// KeyHash hashes bytes inline:
//   * <= 8 bytes: two overlapping 4-byte loads (byte loads below 4 bytes),
//     folded with the length — for a fixed length the load is injective;
//   * longer: 8 bytes at a time with multiply-xorshift, then one
//     overlapping 8-byte read of the tail.
// It never reads outside [data, data + size). std::string and
// std::string_view hash equal. Every other key type (the integer keys of
// HG, SM, KM, MM, LR and PCA) uses std::hash unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace ramr::containers {

namespace detail {

inline constexpr std::uint64_t kKeyMul = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kKeyLenMul = 0xc2b2ae3d27d4eb4fULL;

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Bijective in `w` for a fixed `h`: xor, odd multiply, xorshift.
inline std::uint64_t key_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kKeyMul;
  return h ^ (h >> 32);
}

inline std::uint64_t hash_bytes(const char* p, std::size_t n) {
  const std::uint64_t seed = static_cast<std::uint64_t>(n) * kKeyLenMul;
  if (n <= 8) {
    std::uint64_t w = 0;
    if (n >= 4) {
      w = (load_u32(p) << 32) | load_u32(p + n - 4);
    } else if (n > 0) {
      const auto* u = reinterpret_cast<const unsigned char*>(p);
      w = (std::uint64_t{u[0]} << 16) | (std::uint64_t{u[n >> 1]} << 8) |
          u[n - 1];
    }
    return key_step(seed, w);
  }
  const char* const tail = p + n - 8;
  std::uint64_t h = seed;
  for (; p < tail; p += 8) h = key_step(h, load_u64(p));
  return key_step(h, load_u64(tail));
}

}  // namespace detail

template <typename T>
struct KeyHash : std::hash<T> {};

template <>
struct KeyHash<std::string_view> {
  std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(detail::hash_bytes(s.data(), s.size()));
  }
};

template <>
struct KeyHash<std::string> {
  std::size_t operator()(const std::string& s) const noexcept {
    return static_cast<std::size_t>(detail::hash_bytes(s.data(), s.size()));
  }
};

}  // namespace ramr::containers
