// SplitView — one map task's bytes as the text/byte suite apps see them,
// whatever the input source.
//
// A split source resolves a split index to the byte range [begin, end) of
// a window [data, data + size) that starts at absolute stream offset
// `base`. Exposing the whole window, not just the slice, lets the text apps
// peek at byte begin-1 to apply the word-ownership rule and finish a word
// that crosses `end` by scanning on to `size` (a word never crosses a
// window edge). The histogram keys its channel rotation off the absolute
// offset base + begin.
//
// Sources: apps::TextInput and apps::PixelInput (one window over the whole
// slurped input, base 0, never retired) and io::StreamInput (bounded
// record-aligned windows that retire while the run is still going). The
// source states which through kWindowsRetire, and the apps choose their
// key lifetime from it: zero-copy views into a window that outlives the
// run, owned copies of bytes from one that does not.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace ramr::common {

struct SplitView {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t base = 0;
};

// What the text/byte apps map over. num_splits() is the split count a
// materialized run distributes (for a stream: the splits published so far).
template <typename S>
concept SplitSource = requires(const S& source, std::size_t split) {
  { source.split_view(split) } -> std::same_as<SplitView>;
  { source.num_splits() } -> std::convertible_to<std::size_t>;
  { S::kWindowsRetire } -> std::convertible_to<bool>;
};

}  // namespace ramr::common
