// The compile-time strategy pick every front end shares (core::Runtime,
// adapt::run_adaptive, service::JobContext), so they cannot disagree.
//
// An mr::CombinesInMap app (HG, LR, PCA) runs under FusedCombine on a
// single pool of fused_width workers, plan source "trait": its map already
// combined within the task, so a combiner pool would have nothing to absorb
// (the paper's light workloads, Sec. IV-E, Fig. 10). Every other app runs
// under PipelinedSpsc on the dual pool set of the resolved config.
#pragma once

#include <type_traits>
#include <utility>

#include "common/config.hpp"
#include "engine/app_model.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_depot.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_fused.hpp"
#include "engine/strategy_pipelined.hpp"
#include "topology/topology.hpp"

namespace ramr::engine {

template <mr::AppSpec S>
using Strategy = std::conditional_t<mr::CombinesInMap<S>, FusedCombine<S>,
                                    PipelinedSpsc<S>>;

// The pool set Strategy<S> runs on, and the driver options to run it with.
struct PlannedLease {
  PoolDepot::Lease lease;
  DriverOptions options;
};

// `config` is the config as the caller gave it, before resolved():
// fused_width reads whether the worker counts were fixed. Throws
// ConfigError where resolved() would. The single-pool set carries the
// resolved config, so a fused run stamps the caller's knobs.
template <mr::AppSpec S>
PlannedLease lease_for(PoolDepot& depot, const topo::Topology& topology,
                       const RuntimeConfig& config) {
  if constexpr (mr::CombinesInMap<S>) {
    const RuntimeConfig cfg = config.resolved(topology.num_logical());
    DriverOptions options = driver_options_from(cfg);
    options.plan_source = "trait";
    return {depot.acquire_single(topology, fused_width(topology, config), cfg),
            std::move(options)};
  } else {
    PoolDepot::Lease lease = depot.acquire(topology, config);
    DriverOptions options = driver_options_from(lease.pools().config());
    return {std::move(lease), std::move(options)};
  }
}

}  // namespace ramr::engine
