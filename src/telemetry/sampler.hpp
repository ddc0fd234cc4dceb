// Low-cadence sampling thread: periodic snapshots of cheap probes (ring
// occupancy, heartbeat counters) into named time-series.
//
// Probes are arbitrary double-returning callables; they must be safe to
// invoke from the sampler thread concurrently with the workers (in practice
// they read relaxed/acquire atomics: Ring::size(), Heartbeats counters).
// The probe list is mutex-protected — probes come and go with run phases
// while the thread keeps ticking — which is fine at sampling cadence
// (hundreds of microseconds and up); nothing on a worker hot path ever
// touches the sampler.
//
// Series are bounded (kMaxPointsPerProbe) so a sampler left running cannot
// blow memory; points beyond the cap are counted as dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timing.hpp"

namespace ramr::telemetry {

class Sampler {
 public:
  static constexpr std::size_t kMaxPointsPerProbe = 1 << 16;

  using Probe = std::function<double()>;

  struct Series {
    std::string name;
    std::vector<std::pair<double, double>> points;  // (seconds, value)
    std::size_t dropped = 0;
  };

  explicit Sampler(std::chrono::microseconds period);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  std::chrono::microseconds period() const { return period_; }

  // Timestamps are seconds since this epoch (defaults to construction
  // time); align it with trace::Recorder::epoch() so counter samples and
  // trace events share one timeline. Call before start().
  void set_epoch(Clock::time_point epoch);

  // Registers a probe; returns an id usable with remove_probe. Retired
  // probes keep their collected series. Thread-safe.
  std::size_t add_probe(std::string name, Probe probe);
  void remove_probe(std::size_t id);

  // RAII probe registration for scoped resources (rings, heartbeats).
  class ProbeHandle {
   public:
    ProbeHandle() = default;
    ProbeHandle(Sampler* sampler, std::size_t id)
        : sampler_(sampler), id_(id) {}
    ProbeHandle(ProbeHandle&& o) noexcept
        : sampler_(std::exchange(o.sampler_, nullptr)), id_(o.id_) {}
    ProbeHandle& operator=(ProbeHandle&& o) noexcept {
      release();
      sampler_ = std::exchange(o.sampler_, nullptr);
      id_ = o.id_;
      return *this;
    }
    ~ProbeHandle() { release(); }
    ProbeHandle(const ProbeHandle&) = delete;
    ProbeHandle& operator=(const ProbeHandle&) = delete;

   private:
    void release() {
      if (sampler_ != nullptr) sampler_->remove_probe(id_);
      sampler_ = nullptr;
    }
    Sampler* sampler_ = nullptr;
    std::size_t id_ = 0;
  };

  ProbeHandle scoped_probe(std::string name, Probe probe) {
    return ProbeHandle(this, add_probe(std::move(name), std::move(probe)));
  }

  // Starts/stops the sampling thread. start() is idempotent while running;
  // stop() joins the thread (series remain readable). Every probe live at
  // the thread's first tick gets a point, however soon stop() follows. The
  // destructor stops.
  void start();
  void stop();

  // Snapshot of all series collected so far (active and retired probes).
  std::vector<Series> series() const;

 private:
  struct Slot {
    std::size_t id;
    Probe probe;  // empty after removal; series is kept
    Series data;
  };

  void loop();

  std::chrono::microseconds period_;
  Clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::size_t next_id_ = 0;
  bool running_ = false;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ramr::telemetry
