// Microbenchmarks of the intermediate containers (google-benchmark): emit
// throughput of the fixed array vs the fixed-size hash vs the regular hash
// container — the per-record cost difference behind the default/hash
// flavors of Figs. 8-10.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "containers/metis_container.hpp"

namespace {

using namespace ramr::containers;

constexpr std::size_t kKeys = 768;  // histogram-like key space

void BM_FixedArrayEmit(benchmark::State& state) {
  FixedArrayContainer<std::uint64_t, CountCombiner> c(kKeys);
  ramr::Xoshiro256 rng(1);
  for (auto _ : state) {
    c.emit(rng.below(kKeys), 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedArrayEmit);

void BM_FixedHashEmit(benchmark::State& state) {
  FixedHashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(kKeys);
  ramr::Xoshiro256 rng(1);
  for (auto _ : state) {
    c.emit(rng.below(kKeys), 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedHashEmit);

void BM_RegularHashEmit(benchmark::State& state) {
  HashContainer<std::uint64_t, std::uint64_t, CountCombiner> c(16);
  ramr::Xoshiro256 rng(1);
  const std::uint64_t key_space =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    c.emit(rng.below(key_space), 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegularHashEmit)->Arg(768)->Arg(100000);

// Metis-style bucketed sorted-vector container (paper Sec. II related work).
void BM_MetisEmit(benchmark::State& state) {
  MetisContainer<std::uint64_t, std::uint64_t, CountCombiner> c(kKeys);
  ramr::Xoshiro256 rng(1);
  for (auto _ : state) {
    c.emit(rng.below(kKeys), 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetisEmit);

void BM_StringKeyHashEmit(benchmark::State& state) {
  HashContainer<std::string, std::uint64_t, CountCombiner> c(4096);
  ramr::Xoshiro256 rng(1);
  std::vector<std::string> words;
  for (int i = 0; i < 512; ++i) {
    std::string word = "w";
    words.push_back(word += std::to_string(i));
  }
  for (auto _ : state) {
    c.emit(words[rng.below(512)], 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StringKeyHashEmit);

void BM_MergeContainers(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  FixedArrayContainer<std::uint64_t, CountCombiner> a(n), b(n);
  for (std::size_t k = 0; k < n; ++k) {
    a.emit(k, 1);
    b.emit(k, 2);
  }
  for (auto _ : state) {
    a.merge_from(b);
    benchmark::DoNotOptimize(a.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MergeContainers)->Arg(768)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
