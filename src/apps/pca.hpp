// Principal Component Analysis (PCA) — scientific suite app.
//
// Two MR jobs over an m x n matrix whose rows are variables (Phoenix's
// formulation): (1) row means, (2) the upper triangle of the covariance
// matrix. Both are column-split: each map task processes a chunk of columns
// and emits one partial sum per row (mean job) or per row pair (cov job) —
// the Phoenix++ idiom of combining within the task before emitting.
//
// Paper Fig. 10: PCA has the highest IPB of the suite (O(rows^2) work per
// column) but almost no stalls (regular, cache-friendly access), so RAMR
// neither helps nor hurts it — map dominates and there is nothing to
// overlap. Both jobs combine in the task, so the runtimes run them fused
// (mr::CombinesInMap).
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

// Packed key for the (i, j), j <= i, upper-triangle pair.
constexpr std::uint64_t pca_pack(std::size_t i, std::size_t j) {
  return static_cast<std::uint64_t>(i) * (i + 1) / 2 + j;
}
constexpr std::size_t pca_pair_count(std::size_t rows) {
  return rows * (rows + 1) / 2;
}

struct PcaInput {
  Matrix matrix;
  std::vector<double> row_means;  // required by the covariance job
  std::size_t split_cols = 64;
};

// ---- job 1: row means ---------------------------------------------------------

template <ContainerFlavor F>
struct PcaMeanApp {
  static constexpr const char* kName = "pca-mean";
  static constexpr bool kCombinesInMap = true;  // one record per row

  using input_type = PcaInput;
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<double, containers::SumCombiner<double>>,
      containers::HashContainer<std::uint64_t, double,
                                containers::SumCombiner<double>>>;

  std::size_t num_splits(const input_type& in) const {
    if (in.matrix.cols == 0) return 0;
    return (in.matrix.cols + in.split_cols - 1) / in.split_cols;
  }

  container_type make_container() const {
    return container_type(in_rows_hint == 0 ? 1 : in_rows_hint);
  }

  // Sizing hint for the container (rows of the matrix being processed).
  std::size_t in_rows_hint = 0;

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t c0 = split * in.split_cols;
    const std::size_t c1 = std::min(c0 + in.split_cols, in.matrix.cols);
    // Four-partial-sum reduction over the row's contiguous column slice
    // (the matrix is row-major); every kernel table agrees bit-for-bit.
    const simd::Kernels& k = *simd::active().kernels;
    for (std::size_t r = 0; r < in.matrix.rows; ++r) {
      const double* row = in.matrix.data.data() + r * in.matrix.cols;
      emit(static_cast<std::uint64_t>(r), k.sum_f64(row + c0, c1 - c0));
    }
  }
};

// ---- job 2: covariance upper triangle -------------------------------------------

template <ContainerFlavor F>
struct PcaCovApp {
  static constexpr const char* kName = "pca";
  static constexpr bool kCombinesInMap = true;  // one record per row pair

  using input_type = PcaInput;
  // Default: fixed array over the packed triangle (keys known a priori).
  // Hash flavor: *regular* hash table (paper: "regular hash tables in MM
  // and PCA").
  using container_type = std::conditional_t<
      F == ContainerFlavor::kDefault,
      containers::FixedArrayContainer<double, containers::SumCombiner<double>>,
      containers::HashContainer<std::uint64_t, double,
                                containers::SumCombiner<double>>>;

  std::size_t rows = 0;  // must match input.matrix.rows

  std::size_t num_splits(const input_type& in) const {
    if (in.matrix.cols == 0) return 0;
    return (in.matrix.cols + in.split_cols - 1) / in.split_cols;
  }

  container_type make_container() const {
    return container_type(pca_pair_count(rows == 0 ? 1 : rows));
  }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t c0 = split * in.split_cols;
    const std::size_t c1 = std::min(c0 + in.split_cols, in.matrix.cols);
    // Centered-product reduction over the two rows' column slices with the
    // deterministic four-partial-sum schedule (explicitly no FMA
    // contraction — see simd/kernels.hpp).
    const simd::Kernels& k = *simd::active().kernels;
    const double* base = in.matrix.data.data();
    for (std::size_t i = 0; i < in.matrix.rows; ++i) {
      const double* row_i = base + i * in.matrix.cols;
      const double mi = in.row_means[i];
      for (std::size_t j = 0; j <= i; ++j) {
        emit(pca_pack(i, j),
             k.dot_centered_f64(row_i + c0, base + j * in.matrix.cols + c0,
                                mi, in.row_means[j], c1 - c0));
      }
    }
  }
};

// Serial helpers/references.
std::vector<double> pca_row_means(const Matrix& m);
std::map<std::uint64_t, double> pca_cov_reference(const PcaInput& in);

}  // namespace ramr::apps
