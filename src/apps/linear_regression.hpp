// Linear Regression (LR) — AI-domain suite app.
//
// Ordinary least squares over 2-D points: the map phase accumulates the five
// moment sums (SX, SY, SXX, SYY, SXY) from which slope/intercept follow in
// closed form. Keys are the five fixed moment ids, so the default container
// is a 5-slot fixed array; the hash flavor is a fixed-size hash table.
//
// LR is the paper's second "light workload" app (five trivial emissions per
// 4-byte point): like HG it loses under RAMR with default containers
// (~3.8x on Haswell) — the queue cost dominates its tiny per-element work.
// The simulator keeps that profile; this native map emits five records per
// split, so the runtimes run it fused (mr::CombinesInMap).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "apps/flavor.hpp"
#include "apps/inputs.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "simd/kernels.hpp"

namespace ramr::apps {

// Moment ids (the MR key space).
enum LrKey : std::uint64_t {
  kLrSx = 0,
  kLrSy = 1,
  kLrSxx = 2,
  kLrSyy = 3,
  kLrSxy = 4,
};
inline constexpr std::size_t kLrKeys = 5;

struct LrInput {
  std::vector<LrPoint> points;
  std::size_t split_points = 16 * 1024;
};

template <ContainerFlavor F>
struct LinearRegressionApp {
  static constexpr const char* kName = "lr";
  static constexpr bool kCombinesInMap = true;  // 5 records per split

  using input_type = LrInput;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<std::int64_t,
                                      containers::SumCombiner<std::int64_t>>,
      containers::FixedHashContainer<std::uint64_t, std::int64_t,
                                     containers::SumCombiner<std::int64_t>>>;

  std::size_t num_splits(const input_type& in) const {
    if (in.points.empty()) return 0;
    return (in.points.size() + in.split_points - 1) / in.split_points;
  }

  container_type make_container() const { return container_type(kLrKeys); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * in.split_points;
    const std::size_t end =
        std::min(begin + in.split_points, in.points.size());
    // Multi-accumulator moment reduction over the split's interleaved
    // (x, y) pairs, then five emissions total. Integer sums are exact and
    // SumCombiner adds them, so the output equals a per-point emission.
    static_assert(sizeof(LrPoint) == 2 * sizeof(std::int16_t));
    std::int64_t m[5] = {};
    simd::active().kernels->lr_moments(
        reinterpret_cast<const std::int16_t*>(in.points.data() + begin),
        end - begin, m);
    if (end > begin) {
      emit(kLrSx, m[0]);
      emit(kLrSy, m[1]);
      emit(kLrSxx, m[2]);
      emit(kLrSyy, m[3]);
      emit(kLrSxy, m[4]);
    }
  }
};

// Closed-form fit from the five moment sums.
struct LrFit {
  double slope = 0.0;
  double intercept = 0.0;
};

LrFit lr_fit_from_moments(std::int64_t sx, std::int64_t sy, std::int64_t sxx,
                          std::int64_t sxy, std::size_t n);

// Serial reference: the five moment sums keyed by LrKey.
std::map<std::uint64_t, std::int64_t> lr_reference(const LrInput& in);

}  // namespace ramr::apps
