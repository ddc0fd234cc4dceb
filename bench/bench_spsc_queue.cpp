// Microbenchmarks of the SPSC ring: a deterministic producer-batching
// counter study (control-variable traffic of try_push_batch vs element-wise
// try_push, the Sec. III-A batching argument applied to the producer side)
// and the google-benchmark micro harness (push/pop cost, batched consume,
// dynamic queue baseline) from the paper's SPSC selection study.
//
// `--json[=path]` mirrors the deterministic sections into
// BENCH_spsc_queue.json (ramr-bench-v1) via bench_util.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "spsc/dynamic_queue.hpp"
#include "spsc/lamport.hpp"
#include "spsc/ring.hpp"

namespace {

using ramr::spsc::DynamicQueue;
using ramr::spsc::LamportQueue;
using ramr::spsc::Ring;

// ---------- deterministic sections (mirrored into the JSON report) -----------

// Moves `total` elements through a capacity-1024 ring in produce-then-drain
// cycles and returns the producer-side counters. `block` == 0 is the
// element-wise baseline; otherwise the producer stages `block` elements and
// publishes them with try_push_batch. Single-threaded on purpose: the
// counters (tail stores, cached-head refreshes, failed pushes) are exact
// and host-independent, unlike wall-clock on a loaded CI box.
ramr::spsc::ProducerStats batching_counters(std::size_t block,
                                            std::uint64_t total) {
  Ring<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> staging;
  std::uint64_t next = 0;
  std::uint64_t out;
  std::uint64_t sink = 0;
  while (next < total) {
    if (block == 0) {
      while (next < total && ring.try_push(std::uint64_t{next})) ++next;
    } else {
      while (next < total) {
        staging.clear();
        for (std::size_t i = 0; i < block && next < total; ++i) {
          staging.push_back(next++);
        }
        std::span<std::uint64_t> rest(staging);
        while (!rest.empty()) {
          const std::size_t n = ring.try_push_batch(rest);
          if (n == 0) break;
          rest = rest.subspan(n);
        }
        if (!rest.empty()) {  // ring full: un-consume the leftovers
          next -= rest.size();
          break;
        }
      }
    }
    while (ring.try_pop(out)) sink += out;
  }
  benchmark::DoNotOptimize(sink);
  return ring.producer_stats();
}

// Steady-state backpressure: the consumer frees only 16 slots between
// producer bursts (a busy combiner), so the producer keeps running into the
// full boundary. An element-wise producer must *fail* a push (refresh +
// failed-push) to discover each boundary; try_push_batch discovers it via
// partial acceptance — one refresh, zero failed pushes.
ramr::spsc::ProducerStats backpressure_counters(std::size_t block,
                                                std::uint64_t total) {
  Ring<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> staging;
  std::uint64_t next = 0;
  std::uint64_t sink = 0;
  while (next < total) {
    ring.consume_batch(
        [&](std::span<std::uint64_t> b) {
          for (std::uint64_t x : b) sink += x;
        },
        16);
    if (block == 0) {
      while (next < total && ring.try_push(std::uint64_t{next})) ++next;
    } else {
      staging.clear();
      for (std::size_t i = 0; i < block && next < total; ++i) {
        staging.push_back(next++);
      }
      const std::size_t n =
          ring.try_push_batch(std::span<std::uint64_t>(staging));
      next -= staging.size() - n;  // un-consume the unaccepted suffix
    }
  }
  benchmark::DoNotOptimize(sink);
  return ring.producer_stats();
}

void add_counter_rows(ramr::stats::Table& table, std::uint64_t total,
                      ramr::spsc::ProducerStats (*run)(std::size_t,
                                                       std::uint64_t)) {
  for (std::size_t block : {std::size_t{0}, std::size_t{8}, std::size_t{32},
                            std::size_t{128}, std::size_t{512}}) {
    const auto stats = run(block, total);
    // Element-wise publishes one release store per element; a batch
    // publishes one per try_push_batch call.
    const std::size_t tail_stores =
        block == 0 ? stats.pushes : stats.push_batches;
    table.add_row({block == 0 ? "1 (element-wise)" : std::to_string(block),
                   std::to_string(tail_stores),
                   std::to_string(stats.head_refreshes),
                   std::to_string(stats.failed_pushes),
                   ramr::stats::Table::fmt(static_cast<double>(tail_stores) /
                                               static_cast<double>(total),
                                           4)});
  }
}

void producer_batching_study() {
  constexpr std::uint64_t kTotal = 1 << 20;
  ramr::bench::banner(
      "Producer-side batching: control-variable traffic per element "
      "(fill-then-drain)",
      "Sec. III-A, applied to the producer");
  ramr::stats::Table fill({"emit batch", "tail stores", "head refreshes",
                           "failed pushes", "stores/elem"});
  add_counter_rows(fill, kTotal, batching_counters);
  ramr::bench::print(fill);

  ramr::bench::banner(
      "Producer-side batching under backpressure (16 slots drained per "
      "burst)",
      "Sec. III-A, applied to the producer");
  ramr::stats::Table bp({"emit batch", "tail stores", "head refreshes",
                         "failed pushes", "stores/elem"});
  add_counter_rows(bp, kTotal, backpressure_counters);
  ramr::bench::print(bp);
}

// ---------- google-benchmark micro harness -----------------------------------

void BM_RingPushPop(benchmark::State& state) {
  Ring<std::uint64_t> ring(static_cast<std::size_t>(state.range(0)));
  std::uint64_t v = 0;
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(v++));
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingPushPop)->Arg(64)->Arg(5000)->Arg(65536);

void BM_RingBatchedConsume(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Ring<std::uint64_t> ring(8192);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::uint64_t v = 0;
    while (ring.try_push(v)) ++v;
    state.ResumeTiming();
    while (ring.consume_batch(
               [&](std::span<std::uint64_t> block) {
                 for (std::uint64_t x : block) sink += x;
               },
               batch) > 0) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_RingBatchedConsume)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

// Producer-side mirror of BM_RingBatchedConsume: publish a full ring in
// blocks of `batch` (1 = element-wise try_push), then drain.
void BM_RingBatchedPush(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Ring<std::uint64_t> ring(8192);
  std::vector<std::uint64_t> staging(batch == 1 ? 0 : batch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (batch == 1) {
      std::uint64_t v = 0;
      while (ring.try_push(std::uint64_t{v})) ++v;
    } else {
      for (;;) {
        for (std::size_t i = 0; i < batch; ++i) {
          staging[i] = static_cast<std::uint64_t>(i);
        }
        std::span<std::uint64_t> rest(staging);
        while (!rest.empty()) {
          const std::size_t n = ring.try_push_batch(rest);
          if (n == 0) break;
          rest = rest.subspan(n);
        }
        if (!rest.empty()) break;  // full
      }
    }
    state.PauseTiming();
    std::uint64_t out;
    while (ring.try_pop(out)) sink += out;
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_RingBatchedPush)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Arg(1024);

void BM_RingElementwisePop(benchmark::State& state) {
  Ring<std::uint64_t> ring(8192);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::uint64_t v = 0;
    while (ring.try_push(v)) ++v;
    state.ResumeTiming();
    std::uint64_t out;
    while (ring.try_pop(out)) sink += out;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          8192);
}
BENCHMARK(BM_RingElementwisePop);

// The plain Lamport queue (no cached indices): every operation reads the
// opposite side's control variable — the baseline of the paper's "several
// SPSC buffers" comparison.
void BM_LamportPushPop(benchmark::State& state) {
  LamportQueue<std::uint64_t> q(static_cast<std::size_t>(state.range(0)));
  std::uint64_t v = 0;
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push(std::uint64_t{v++}));
    benchmark::DoNotOptimize(q.try_pop(out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LamportPushPop)->Arg(5000);

// Concurrent producer/consumer throughput: the measurement the paper used
// to choose its SPSC implementation (Sec. III-A). One producer thread, the
// benchmark thread consumes.
template <typename Queue>
void concurrent_transfer(benchmark::State& state, Queue& q,
                         std::size_t elements) {
  for (auto _ : state) {
    std::atomic<bool> done{false};
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < elements; ++i) {
        while (!q.try_push(std::uint64_t{i})) {
          std::this_thread::yield();
        }
      }
      done.store(true);
    });
    std::uint64_t sink = 0;
    std::uint64_t out;
    std::uint64_t received = 0;
    while (received < elements) {
      if (q.try_pop(out)) {
        sink += out;
        ++received;
      } else if (!done.load()) {
        std::this_thread::yield();
      }
    }
    producer.join();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elements));
}

void BM_RingConcurrent(benchmark::State& state) {
  Ring<std::uint64_t> q(5000);
  concurrent_transfer(state, q, 100000);
}
BENCHMARK(BM_RingConcurrent)->Unit(benchmark::kMillisecond);

void BM_LamportConcurrent(benchmark::State& state) {
  LamportQueue<std::uint64_t> q(5000);
  concurrent_transfer(state, q, 100000);
}
BENCHMARK(BM_LamportConcurrent)->Unit(benchmark::kMillisecond);

void BM_DynamicQueuePushPop(benchmark::State& state) {
  DynamicQueue<std::uint64_t> q(static_cast<std::size_t>(state.range(0)));
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push(v++));
    benchmark::DoNotOptimize(q.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DynamicQueuePushPop)->Arg(5000);

}  // namespace

// Custom main: the deterministic sections run first (and land in the JSON
// report when --json is given); the google-benchmark harness then consumes
// the remaining flags, with --json stripped so it doesn't reject it.
int main(int argc, char** argv) {
  ramr::bench::init(argc, argv, "spsc_queue");
  producer_batching_study();

  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) continue;
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
