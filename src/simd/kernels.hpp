// Portable SIMD map kernels with runtime capability dispatch.
//
// The map-side inner loops of the text/byte suite apps reduce to a handful
// of primitives: separator scans over the whitespace class, first-byte
// pattern probes, byte-bucket accumulation, and fixed-moment reductions.
// This layer implements each primitive three times — portable scalar, SSE2
// (128-bit, the x86-64 baseline) and AVX2 (256-bit, Haswell onward) — and
// active() picks the widest table the probed ISA (common/cpu.hpp) allows:
// avx2, then sse2, then scalar. The scalar table is the non-x86 path and
// the reference the vector tables are tested against.
//
// Determinism contract: for every kernel and every input, all three tables
// return bit-identical results. The integer kernels are order-independent
// sums, and the f64 kernels fix one accumulation schedule — four
// interleaved partial sums combined as (s0+s2)+(s1+s3) — that scalar, SSE2
// and AVX2 all execute exactly, so output does not depend on the host.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.hpp"

namespace ramr::simd {

// The separator class the text kernels scan for: ' ' plus the C whitespace
// escapes \t \n \v \f \r (bytes 9..13). The one definition of the class:
// the serial references tokenize on it and the streaming chunk sources cut
// windows after it (io::text_record_break), so slurped, streamed and
// raw-constructed inputs all tokenize identically without rewriting bytes.
constexpr bool is_word_separator(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return c == ' ' || (u >= 9 && u <= 13);
}

// One resolved implementation set. Every entry is non-null in every table.
struct Kernels {
  // Returns the first index in [pos, end) holding a separator byte, or
  // `end` when there is none.
  std::size_t (*find_separator)(const char* data, std::size_t pos,
                                std::size_t end);

  // Returns the first index in [pos, end) holding a NON-separator byte, or
  // `end` when the whole range is separators.
  std::size_t (*skip_separators)(const char* data, std::size_t pos,
                                 std::size_t end);

  // Returns the first index in [pos, end) holding byte `b`, or `end`.
  std::size_t (*find_byte)(const char* data, std::size_t pos, std::size_t end,
                           char b);

  // memcmp-shaped equality over n bytes.
  bool (*range_equal)(const char* a, const char* b, std::size_t n);

  // Histogram binning: for each input byte data[i], increments
  // bins[((channel0 + i) % 3) * 256 + data[i]]. `bins` has 768 slots.
  // Gather-free: the wide tables accumulate into per-lane partial tables
  // (breaking the store-forward dependency chain) and merge at the end.
  void (*histogram_channels)(const std::uint8_t* data, std::size_t n,
                             std::size_t channel0, std::uint64_t* bins);

  // Linear-regression moment sums over n interleaved (x, y) int16 pairs:
  // out[0..4] += {Sx, Sy, Sxx, Syy, Sxy}. Integer sums — exact and
  // order-independent, so every table agrees bit-for-bit.
  void (*lr_moments)(const std::int16_t* xy, std::size_t n,
                     std::int64_t out[5]);

  // Four-partial-sum reduction of a[0..n): lane i%4 accumulates a[i], and
  // the result is (s0+s2)+(s1+s3). All tables execute this exact schedule.
  double (*sum_f64)(const double* a, std::size_t n);

  // Same schedule over the centered products (a[i]-ma)*(b[i]-mb) — the PCA
  // covariance inner loop. No FMA contraction on any path (the vector code
  // uses explicit mul+add), so every table agrees bit-for-bit.
  double (*dot_centered_f64)(const double* a, const double* b, double ma,
                             double mb, std::size_t n);
};

// The resolved dispatch decision for this process.
struct Active {
  common::IsaLevel isa = common::IsaLevel::kScalar;  // probed
  const char* path = "scalar";       // "scalar" | "sse2" | "avx2"
  const Kernels* kernels = nullptr;  // never null from active()
};

// The process-wide decision: the widest table the cpuid probe allows AND
// the build produced. Resolved once; apps call this on every map task.
const Active& active();

// Test-only: swaps the table active() returns for this guard's lifetime.
// Not thread-safe against concurrent active() callers — install it before
// any run starts.
class ScopedKernels {
 public:
  ScopedKernels(const Kernels& kernels, const char* path);
  ~ScopedKernels();
  ScopedKernels(const ScopedKernels&) = delete;
  ScopedKernels& operator=(const ScopedKernels&) = delete;

 private:
  Active saved_;
};

// The individual tables, for parity tests and the kernel bench. sse2/avx2
// return nullptr when the build could not compile that tier.
const Kernels& scalar_kernels();
const Kernels* sse2_kernels();
const Kernels* avx2_kernels();

}  // namespace ramr::simd
