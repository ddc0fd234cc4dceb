// The process-wide kernel-table decision.
#include "simd/kernels.hpp"

namespace ramr::simd {

namespace {

Active resolve() {
  Active a;
  a.isa = common::probe_isa();
  a.kernels = &scalar_kernels();
  // Widest tier first; a tier is taken only when the cpuid probe allows it
  // AND the build produced its table.
  if (a.isa == common::IsaLevel::kAvx2) {
    if (const Kernels* k = avx2_kernels()) {
      a.kernels = k;
      a.path = "avx2";
      return a;
    }
  }
  if (a.isa == common::IsaLevel::kAvx2 || a.isa == common::IsaLevel::kSse2) {
    if (const Kernels* k = sse2_kernels()) {
      a.kernels = k;
      a.path = "sse2";
    }
  }
  return a;
}

Active& cached() {
  static Active a = resolve();
  return a;
}

}  // namespace

const Active& active() { return cached(); }

ScopedKernels::ScopedKernels(const Kernels& kernels, const char* path)
    : saved_(cached()) {
  cached().kernels = &kernels;
  cached().path = path;
}

ScopedKernels::~ScopedKernels() { cached() = saved_; }

}  // namespace ramr::simd
