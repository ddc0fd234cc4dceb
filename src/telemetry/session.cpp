#include "telemetry/session.hpp"

#include <algorithm>

#include "common/config.hpp"

namespace ramr::telemetry {

const char* to_string(PoolKind kind) {
  switch (kind) {
    case PoolKind::kMapper: return "mapper";
    case PoolKind::kCombiner: return "combiner";
  }
  return "?";
}

const char* to_string(CounterSource source) {
  switch (source) {
    case CounterSource::kNone: return "none";
    case CounterSource::kPmu: return "pmu";
    case CounterSource::kModel: return "model";
  }
  return "?";
}

Session::Session(SessionOptions options)
    : options_(options),
      registry_(std::max<std::size_t>(
          1, options.num_mappers + options.num_combiners)) {
  engine_metrics_.combiner_slot_base = options_.num_mappers;
  engine_metrics_.tasks_executed = &registry_.counter("tasks_executed");
  engine_metrics_.queue_pushes = &registry_.counter("queue_pushes");
  engine_metrics_.queue_failed_pushes =
      &registry_.counter("queue_failed_pushes");
  engine_metrics_.queue_batches = &registry_.counter("queue_batches");
  engine_metrics_.queue_push_batches =
      &registry_.counter("queue_push_batches");
  engine_metrics_.backoff_sleeps = &registry_.counter("backoff_sleeps");
  engine_metrics_.task_retries = &registry_.counter("task_retries");
  engine_metrics_.task_aborts = &registry_.counter("task_aborts");
  engine_metrics_.batch_sizes = &registry_.histogram("batch_sizes");
  engine_metrics_.queue_max_occupancy =
      &registry_.gauge("queue_max_occupancy");
  if (options_.sample_interval_us > 0) {
    sampler_ = std::make_unique<Sampler>(
        std::chrono::microseconds(options_.sample_interval_us));
  }
}

Session::~Session() = default;

std::unique_ptr<Session> Session::from_config(const RuntimeConfig& config,
                                              std::size_t num_mappers,
                                              std::size_t num_combiners) {
  if (config.obs == ObsLevel::kOff) return nullptr;
  SessionOptions options;
  options.pmu = config.pmu_mode;
  options.sample_interval_us = config.sample_interval_us;
  options.num_mappers = std::max<std::size_t>(1, num_mappers);
  options.num_combiners = num_combiners;
  return std::make_unique<Session>(options);
}

void Session::attach_pools(const std::vector<std::int64_t>& mapper_tids,
                           const std::vector<std::int64_t>& combiner_tids) {
  if (options_.pmu == PmuMode::kOff) return;
  if (!pmu_probe().available) return;
  if (pool_pmu_[0] == nullptr && !mapper_tids.empty()) {
    pool_pmu_[0] = std::make_unique<PoolPmu>(mapper_tids);
  }
  if (pool_pmu_[1] == nullptr && !combiner_tids.empty()) {
    pool_pmu_[1] = std::make_unique<PoolPmu>(combiner_tids);
  }
}

void Session::begin_run(Clock::time_point trace_epoch) {
  if (sampler_ != nullptr) {
    sampler_->set_epoch(trace_epoch);
    sampler_->start();
  }
}

void Session::end_run() {
  if (sampler_ != nullptr) sampler_->stop();
}

void Session::begin_phase(Phase phase) {
  (void)phase;
  for (auto& pmu : pool_pmu_) {
    if (pmu != nullptr && pmu->measuring()) pmu->begin();
  }
}

void Session::end_phase(Phase phase, double seconds) {
  phase_seconds_[static_cast<std::size_t>(phase)] = seconds;
  for (std::size_t p = 0; p < kPoolKinds; ++p) {
    if (pool_pmu_[p] == nullptr || !pool_pmu_[p]->measuring()) continue;
    Cell& c = cells_[static_cast<std::size_t>(phase)][p];
    c.sample = pool_pmu_[p]->end();
    c.measured = c.sample.instructions_valid;
  }
}

void Session::set_modeled(Phase phase, PoolKind pool,
                          perf::Counters counters) {
  Cell& c = cell(phase, pool);
  c.model = counters;
  c.modeled = true;
}

PhaseCounters Session::phase_counters(Phase phase, PoolKind pool) const {
  const Cell& c = cell(phase, pool);
  PhaseCounters out;
  if (c.measured) {
    out.source = CounterSource::kPmu;
    out.counters.instructions = static_cast<double>(c.sample.instructions);
    out.counters.mem_stall_cycles =
        static_cast<double>(c.sample.mem_stall_cycles);
    out.counters.resource_stall_cycles =
        static_cast<double>(c.sample.resource_stall_cycles);
    out.counters.input_bytes = input_bytes_;
    out.cycles = c.sample.cycles;
    out.cycles_measured = c.sample.cycles_valid;
    out.mem_stall_measured = c.sample.mem_stall_valid;
    out.resource_stall_measured = c.sample.resource_stall_valid;
  } else if (c.modeled) {
    out.source = CounterSource::kModel;
    out.counters = c.model;
    if (out.counters.input_bytes <= 0.0) out.counters.input_bytes = input_bytes_;
  }
  return out;
}

bool Session::pmu_active() const {
  for (const auto& pmu : pool_pmu_) {
    if (pmu != nullptr && pmu->measuring()) return true;
  }
  return false;
}

std::vector<Sampler::Series> Session::series() const {
  if (sampler_ == nullptr) return {};
  return sampler_->series();
}

}  // namespace ramr::telemetry
