// Runs an app under engine::PipelinedSpsc on a dual pool set of `cfg`,
// driven through engine::PhaseDriver. core::Runtime runs mr::CombinesInMap
// apps (HG, LR, PCA) fused, so tests that check the decoupled pipeline on
// them, or compare it with a reference, call these instead.
#pragma once

#include "common/config.hpp"
#include "engine/app_model.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_pipelined.hpp"
#include "topology/topology.hpp"

namespace ramr::testing {

template <typename App>
mr::result_of<App> run_pipelined(const App& app,
                                 const typename App::input_type& input,
                                 const RuntimeConfig& cfg) {
  engine::PoolSet pools(topo::host(), cfg);
  engine::PhaseDriver driver(pools,
                             engine::driver_options_from(pools.config()));
  engine::PipelinedSpsc<App> strategy;
  return driver.run(strategy, app, input);
}

// Streaming variant: `pump` must be freshly constructed for this call.
template <typename App, engine::TaskPump Pump>
mr::result_of<App> run_pipelined_stream(const App& app,
                                        const typename App::input_type& input,
                                        Pump& pump, const RuntimeConfig& cfg) {
  engine::PoolSet pools(topo::host(), cfg);
  engine::PhaseDriver driver(pools,
                             engine::driver_options_from(pools.config()));
  engine::PipelinedSpsc<App> strategy;
  return driver.run_stream(strategy, app, input, pump);
}

}  // namespace ramr::testing
