#include "telemetry/sampler.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ramr::telemetry {

Sampler::Sampler(std::chrono::microseconds period)
    : period_(period), epoch_(now()) {
  if (period.count() <= 0) {
    throw ConfigError("Sampler period must be positive");
  }
}

Sampler::~Sampler() { stop(); }

void Sampler::set_epoch(Clock::time_point epoch) {
  std::lock_guard lock(mutex_);
  epoch_ = epoch;
}

std::size_t Sampler::add_probe(std::string name, Probe probe) {
  std::lock_guard lock(mutex_);
  const std::size_t id = next_id_++;
  Slot slot;
  slot.id = id;
  slot.probe = std::move(probe);
  slot.data.name = std::move(name);
  slots_.push_back(std::move(slot));
  return id;
}

void Sampler::remove_probe(std::size_t id) {
  std::lock_guard lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.id == id) {
      slot.probe = nullptr;  // retire; keep the collected series
      return;
    }
  }
}

void Sampler::start() {
  std::lock_guard lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { loop(); });
}

void Sampler::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lock(mutex_);
  running_ = false;
}

void Sampler::loop() {
  std::unique_lock lock(mutex_);
  // Sample before the first stopping_ check: a stop() that lands before
  // this thread first takes the lock still leaves one point per live probe.
  do {
    const double t = seconds_between(epoch_, now());
    for (Slot& slot : slots_) {
      if (!slot.probe) continue;
      if (slot.data.points.size() >= kMaxPointsPerProbe) {
        ++slot.data.dropped;
        continue;
      }
      slot.data.points.emplace_back(t, slot.probe());
    }
  } while (!cv_.wait_for(lock, period_, [this] { return stopping_; }));
}

std::vector<Sampler::Series> Sampler::series() const {
  std::lock_guard lock(mutex_);
  std::vector<Series> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.data);
  return out;
}

}  // namespace ramr::telemetry
