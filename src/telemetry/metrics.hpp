// MetricRegistry — named counters, gauges and histograms with per-thread
// single-writer slots.
//
// Same no-lock discipline as trace::Lane: metrics are created up front
// (during setup, before the instrumented region starts), each slot is then
// written by exactly one thread, and aggregation happens at collect time.
// Slots are cache-line aligned so two workers bumping adjacent counters
// never share a line, and the cells are relaxed atomics so the optional
// sampler thread (and collect() itself) may read concurrently with writers
// without a data race — per-slot monotonicity is all a reader needs.
//
// Cost when telemetry is disabled: zero — the engine holds a null
// EngineMetrics pointer and every instrumentation site is one pointer
// check. Cost when enabled: one relaxed fetch_add on a thread-private line
// per event, and the hot paths only write at batch/task granularity.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cacheline.hpp"

namespace ramr::telemetry {

// Monotonic per-slot counter (aggregate = sum over slots).
class Counter {
 public:
  Counter(std::string name, std::size_t num_slots);

  const std::string& name() const { return name_; }
  std::size_t num_slots() const { return num_slots_; }

  void add(std::size_t slot, std::uint64_t delta) {
    slots_[slot].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment(std::size_t slot) { add(slot, 1); }

  std::uint64_t slot_value(std::size_t slot) const {
    return slots_[slot].value.load(std::memory_order_relaxed);
  }
  std::uint64_t total() const;

 private:
  std::string name_;
  std::size_t num_slots_;
  std::unique_ptr<CacheAligned<std::atomic<std::uint64_t>>[]> slots_;
};

// Last-value-wins per-slot gauge (aggregate = max over slots). Values are
// doubles stored as bit patterns in an atomic word.
class Gauge {
 public:
  Gauge(std::string name, std::size_t num_slots);

  const std::string& name() const { return name_; }
  std::size_t num_slots() const { return num_slots_; }

  void set(std::size_t slot, double value);
  double slot_value(std::size_t slot) const;
  double max() const;

 private:
  std::string name_;
  std::size_t num_slots_;
  std::unique_ptr<CacheAligned<std::atomic<std::uint64_t>>[]> slots_;
};

// Power-of-two bucketed histogram of non-negative integer samples (batch
// sizes, occupancies, latencies in ticks). Bucket i counts samples whose
// bit width is i, i.e. bucket 0 holds the value 0, bucket i>=1 holds
// [2^(i-1), 2^i - 1]; upper_bound(i) reports the inclusive bucket ceiling
// that percentile estimation returns.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  Histogram(std::string name, std::size_t num_slots);

  const std::string& name() const { return name_; }
  std::size_t num_slots() const { return num_slots_; }

  void record(std::size_t slot, std::uint64_t value);

  static std::uint64_t upper_bound(std::size_t bucket);

 private:
  friend struct HistogramSnapshot;
  friend class MetricRegistry;
  std::string name_;
  std::size_t num_slots_;
  // Per-slot bucket array, one cache line per slot boundary: buckets of one
  // slot are written by one thread only.
  std::unique_ptr<CacheAligned<
      std::array<std::atomic<std::uint64_t>, kBuckets>>[]> slots_;
};

// ---- collect-time aggregation ---------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t total = 0;
  std::vector<std::uint64_t> per_slot;
};

struct GaugeSnapshot {
  std::string name;
  double max = 0.0;
  std::vector<double> per_slot;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;                          // total samples
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  // Inclusive upper bound of the bucket containing the q-quantile
  // (q in [0,1]); 0 when the histogram is empty.
  std::uint64_t quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

// The registry owns the metrics. Thread-safety contract mirrors
// trace::Recorder: counter()/gauge()/histogram() create-or-return during
// setup only (single-threaded); slots are then written concurrently;
// collect() may run at any time (it reads relaxed atomics).
class MetricRegistry {
 public:
  explicit MetricRegistry(std::size_t num_slots) : num_slots_(num_slots) {}

  std::size_t num_slots() const { return num_slots_; }

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot collect() const;

 private:
  std::size_t num_slots_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ramr::telemetry
