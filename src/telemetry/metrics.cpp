#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>

namespace ramr::telemetry {

Counter::Counter(std::string name, std::size_t num_slots)
    : name_(std::move(name)),
      num_slots_(num_slots),
      slots_(std::make_unique<CacheAligned<std::atomic<std::uint64_t>>[]>(
          num_slots)) {}

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < num_slots_; ++i) sum += slot_value(i);
  return sum;
}

Gauge::Gauge(std::string name, std::size_t num_slots)
    : name_(std::move(name)),
      num_slots_(num_slots),
      slots_(std::make_unique<CacheAligned<std::atomic<std::uint64_t>>[]>(
          num_slots)) {}

void Gauge::set(std::size_t slot, double value) {
  slots_[slot].value.store(std::bit_cast<std::uint64_t>(value),
                           std::memory_order_relaxed);
}

double Gauge::slot_value(std::size_t slot) const {
  return std::bit_cast<double>(
      slots_[slot].value.load(std::memory_order_relaxed));
}

double Gauge::max() const {
  double m = 0.0;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    m = std::max(m, slot_value(i));
  }
  return m;
}

Histogram::Histogram(std::string name, std::size_t num_slots)
    : name_(std::move(name)),
      num_slots_(num_slots),
      slots_(std::make_unique<CacheAligned<
                 std::array<std::atomic<std::uint64_t>, kBuckets>>[]>(
          num_slots)) {}

void Histogram::record(std::size_t slot, std::uint64_t value) {
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  slots_[slot].value[std::min(bucket, kBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t Histogram::upper_bound(std::size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Smallest bucket whose cumulative count reaches q * total (rank >= 1).
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return Histogram::upper_bound(i);
    }
  }
  return Histogram::upper_bound(buckets.size() - 1);
}

Counter& MetricRegistry::counter(const std::string& name) {
  for (auto& c : counters_) {
    if (c->name() == name) return *c;
  }
  counters_.push_back(std::make_unique<Counter>(name, num_slots_));
  return *counters_.back();
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  for (auto& g : gauges_) {
    if (g->name() == name) return *g;
  }
  gauges_.push_back(std::make_unique<Gauge>(name, num_slots_));
  return *gauges_.back();
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  for (auto& h : histograms_) {
    if (h->name() == name) return *h;
  }
  histograms_.push_back(std::make_unique<Histogram>(name, num_slots_));
  return *histograms_.back();
}

MetricsSnapshot MetricRegistry::collect() const {
  MetricsSnapshot snap;
  for (const auto& c : counters_) {
    CounterSnapshot s;
    s.name = c->name();
    s.per_slot.reserve(c->num_slots());
    for (std::size_t i = 0; i < c->num_slots(); ++i) {
      s.per_slot.push_back(c->slot_value(i));
      s.total += s.per_slot.back();
    }
    snap.counters.push_back(std::move(s));
  }
  for (const auto& g : gauges_) {
    GaugeSnapshot s;
    s.name = g->name();
    s.per_slot.reserve(g->num_slots());
    for (std::size_t i = 0; i < g->num_slots(); ++i) {
      s.per_slot.push_back(g->slot_value(i));
    }
    s.max = g->max();
    snap.gauges.push_back(std::move(s));
  }
  for (const auto& h : histograms_) {
    HistogramSnapshot s;
    s.name = h->name();
    for (std::size_t slot = 0; slot < h->num_slots(); ++slot) {
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        const std::uint64_t n =
            h->slots_[slot].value[b].load(std::memory_order_relaxed);
        s.buckets[b] += n;
        s.count += n;
      }
    }
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

}  // namespace ramr::telemetry
