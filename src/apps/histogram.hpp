// Histogram (HG) — image-processing suite app.
//
// Builds the 3x256-bin per-channel histogram of an interleaved RGB pixel
// byte stream. Keys are channel*256 + intensity, i.e. the range [0, 768) is
// known a priori, so the default container is the thread-local fixed array;
// the hash flavor is a fixed-size hash table over the same 768 keys.
//
// HG is one of the paper's two "light workload" apps: one trivial emission
// per input byte, so the SPSC-queue cost dominates under RAMR (Figs. 8/9
// show a ~3x slowdown) — it is the negative control of the evaluation.
// The simulator keeps that per-byte profile (perf/profiles.cpp); this
// native map combines in-map and emits at most one record per bin, so the
// runtimes run it fused (mr::CombinesInMap).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "apps/flavor.hpp"
#include "common/split_view.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "simd/kernels.hpp"

namespace ramr::apps {

inline constexpr std::size_t kHistogramBins = 3 * 256;

// Bins n bytes locally, then emits one aggregated count per non-empty bin.
// `channel0` is the channel of data[0] (its absolute offset mod 3).
// CountCombiner sums counts, so the output equals a per-byte emission while
// the traffic is at most kHistogramBins records per call.
template <typename Emit>
void emit_histogram(const std::uint8_t* data, std::size_t n,
                    std::size_t channel0, Emit&& emit) {
  std::uint64_t bins[kHistogramBins] = {};
  simd::active().kernels->histogram_channels(data, n, channel0, bins);
  for (std::size_t b = 0; b < kHistogramBins; ++b) {
    if (bins[b] != 0) emit(static_cast<std::uint64_t>(b), bins[b]);
  }
}

// Slurped pixel bytes: one window over the whole input, base 0.
struct PixelInput {
  static constexpr bool kWindowsRetire = false;

  std::vector<std::uint8_t> bytes;  // interleaved R,G,B
  std::size_t split_bytes = 64 * 1024;

  std::size_t num_splits() const {
    if (bytes.empty()) return 0;
    return (bytes.size() + split_bytes - 1) / split_bytes;
  }
  common::SplitView split_view(std::size_t split) const {
    const std::size_t begin = split * split_bytes;
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size(), begin,
            std::min(begin + split_bytes, bytes.size()), 0};
  }
};

// Source: a SplitSource (PixelInput, or io::StreamInput over a binary
// stream). A byte's channel is its absolute offset mod 3, so a stream's
// window base keeps the rotation right across windows.
template <ContainerFlavor F, common::SplitSource Source = PixelInput>
struct HistogramApp {
  static constexpr const char* kName = "hg";
  static constexpr bool kCombinesInMap = true;  // <= 768 records per split

  using input_type = Source;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>,
      containers::FixedHashContainer<std::uint64_t, std::uint64_t,
                                     containers::CountCombiner>>;

  std::size_t num_splits(const input_type& in) const {
    return in.num_splits();
  }

  container_type make_container() const {
    return container_type(kHistogramBins);
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const common::SplitView v = in.split_view(split);
    emit_histogram(reinterpret_cast<const std::uint8_t*>(v.data) + v.begin,
                   v.end - v.begin, (v.base + v.begin) % 3, emit);
  }
};

// Serial reference: bin -> count for all non-empty bins.
std::map<std::uint64_t, std::uint64_t> histogram_reference(
    const PixelInput& in);

}  // namespace ramr::apps
