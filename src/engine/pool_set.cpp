#include "engine/pool_set.hpp"

#include <cstdio>
#include <exception>
#include <utility>

#include "common/error.hpp"

namespace ramr::engine {

namespace {
std::string what_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "<non-standard exception>";
  }
}
}  // namespace

JoinOutcome join_pools_collect(sched::ThreadPool& first,
                               sched::ThreadPool& second) {
  JoinOutcome outcome;
  try {
    first.wait();
  } catch (...) {
    outcome.first_error = std::current_exception();
  }
  try {
    second.wait();
  } catch (...) {
    if (!outcome.first_error) {
      outcome.first_error = std::current_exception();
    } else {
      ++outcome.suppressed;
      outcome.suppressed_message = what_of(std::current_exception());
    }
  }
  return outcome;
}

void join_pools_rethrow_first(sched::ThreadPool& first,
                              sched::ThreadPool& second) {
  JoinOutcome outcome = join_pools_collect(first, second);
  if (!outcome.first_error) return;
  if (outcome.suppressed > 0) {
    std::fprintf(stderr,
                 "[ramr] note: %zu additional worker error(s) suppressed by "
                 "the join protocol; first suppressed: %s\n",
                 outcome.suppressed, outcome.suppressed_message.c_str());
  }
  std::rethrow_exception(outcome.first_error);
}

std::size_t fused_width(const topo::Topology& topology,
                        const RuntimeConfig& config) {
  if (config.num_mappers == 0 && config.num_combiners == 0) {
    return topology.num_logical();
  }
  const RuntimeConfig r = config.resolved(topology.num_logical());
  return r.num_mappers + r.num_combiners;
}

std::string PoolSet::shape_key(const topo::Topology& topology,
                               const RuntimeConfig& resolved) {
  return topology.name() + "/" + std::to_string(topology.num_logical()) +
         "|dual|m=" + std::to_string(resolved.num_mappers) +
         "|c=" + std::to_string(resolved.num_combiners) +
         "|pin=" + to_string(resolved.pin_policy);
}

std::string PoolSet::shape_key_single(const topo::Topology& topology,
                                      std::size_t num_workers,
                                      PinPolicy policy) {
  const std::size_t workers =
      num_workers == 0 ? topology.num_logical() : num_workers;
  return topology.name() + "/" + std::to_string(topology.num_logical()) +
         "|single|w=" + std::to_string(workers) + "|pin=" + to_string(policy);
}

void PoolSet::rebind(const RuntimeConfig& resolved) {
  RuntimeConfig next = resolved;
  if (!dual()) {
    next.num_mappers = num_mappers();
    next.num_combiners = 0;
  }
  const std::string key =
      dual() ? shape_key(topo_, next)
             : shape_key_single(topo_, next.num_mappers, next.pin_policy);
  if (key != shape_) {
    throw ConfigError("pool-set rebind across shapes (" + shape_ + " -> " +
                      key + ")");
  }
  cfg_ = std::move(next);
}

PoolSet::PoolSet(topo::Topology topology, const RuntimeConfig& config)
    : topo_(std::move(topology)),
      cfg_(config.resolved(topo_.num_logical())),
      shape_(shape_key(topo_, cfg_)),
      plan_(topo::make_plan(topo_, cfg_.pin_policy, cfg_.num_mappers,
                            cfg_.num_combiners)),
      mapper_pins_(cfg_.num_mappers),
      combiner_pins_(cfg_.num_combiners) {
  if (cfg_.pin_policy != PinPolicy::kOsDefault) {
    for (std::size_t m = 0; m < cfg_.num_mappers; ++m) {
      mapper_pins_[m] = plan_.mapper_cpu.at(m);
    }
    for (std::size_t j = 0; j < cfg_.num_combiners; ++j) {
      combiner_pins_[j] = plan_.combiner_cpu.at(j);
    }
  }
  mapper_pool_ =
      std::make_unique<sched::ThreadPool>(cfg_.num_mappers, mapper_pins_);
  combiner_pool_ =
      std::make_unique<sched::ThreadPool>(cfg_.num_combiners, combiner_pins_);
  num_groups_ = topo_.num_sockets();
}

namespace {
RuntimeConfig with_pin_policy(PinPolicy policy) {
  RuntimeConfig config;
  config.pin_policy = policy;
  return config;
}
}  // namespace

PoolSet::PoolSet(topo::Topology topology, std::size_t num_workers,
                 PinPolicy policy)
    : PoolSet(std::move(topology), num_workers, with_pin_policy(policy)) {}

PoolSet::PoolSet(topo::Topology topology, std::size_t num_workers,
                 const RuntimeConfig& config)
    : topo_(std::move(topology)), cfg_(config) {
  const std::size_t workers =
      num_workers == 0 ? topo_.num_logical() : num_workers;
  if (workers == 0) {
    throw ConfigError("PoolSet needs at least one worker");
  }
  cfg_.num_mappers = workers;
  cfg_.num_combiners = 0;
  const PinPolicy policy = cfg_.pin_policy;
  shape_ = shape_key_single(topo_, workers, policy);
  plan_.policy = policy;
  mapper_pins_.resize(workers);
  if (policy != PinPolicy::kOsDefault) {
    const auto order = topo_.proximity_order();
    for (std::size_t i = 0; i < workers; ++i) {
      mapper_pins_[i] = policy == PinPolicy::kRoundRobin
                            ? topo_.cpus()[i % topo_.num_logical()].os_id
                            : order[i % order.size()];
    }
  }
  mapper_pool_ = std::make_unique<sched::ThreadPool>(workers, mapper_pins_);
  num_groups_ = topo_.num_sockets();
}

std::size_t PoolSet::group_of_mapper(std::size_t m) const {
  if (cfg_.pin_policy != PinPolicy::kOsDefault && dual() &&
      !plan_.mapper_cpu.empty()) {
    return topo_.by_os_id(plan_.mapper_cpu[m]).socket % num_groups_;
  }
  return m % num_groups_;
}

}  // namespace ramr::engine
