// FusedCombine — the Phoenix++ coupling strategy.
//
// One general-purpose pool; each worker owns a thread-local intermediate
// container; the combine function is applied after *every* map emission on
// the same thread ("map-combine" is fused). The reduce phase tree-merges
// the per-worker containers; merge sorts by key (paper Sec. II / [4]).
//
// Failure protocol: single pool, so the join is simple — but workers still
// participate in cooperative cancellation (poll at task boundaries, quiet
// exit on CancelledError, attribute real failures on the token) so that a
// deadline/stall verdict or an injected fault behaves uniformly across the
// three strategies.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/cancellation.hpp"
#include "containers/container_traits.hpp"
#include "engine/app_model.hpp"
#include "engine/emit_strategy.hpp"
#include "engine/result.hpp"
#include "sched/tree_merge.hpp"

namespace ramr::engine {

template <mr::AppSpec App>
class FusedCombine {
 public:
  using Container = typename App::container_type;
  using key_type = mr::key_type_of<App>;
  using value_type = mr::value_type_of<App>;
  static constexpr bool kHasReduce = true;
  static constexpr const char* kName = "fused";

  void map_combine(MapCombineContext& ctx, const App& app,
                   const typename App::input_type& input,
                   RunResult<key_type, value_type>& result) {
    locals_.clear();
    locals_.reserve(ctx.pools.num_mappers());
    for (std::size_t w = 0; w < ctx.pools.num_mappers(); ++w) {
      ctx.injector.on_container_alloc();
      locals_.push_back(app.make_container());
    }
    std::atomic<std::size_t> tasks_executed{0};
    ctx.pools.mapper_pool().run_on_all([&](std::size_t worker) {
      TaskLoopControl ctl = TaskLoopControl::create(ctx, worker);
      ActiveScope live(ctl.beat);
      Container& mine = locals_[worker];
      const auto emit = [&](const key_type& k, const value_type& v) {
        ctx.injector.on_emit(worker);
        mine.emit(k, v);
      };
      try {
        const std::size_t executed =
            drain_map_tasks(ctl, app, input, emit, [] {});
        tasks_executed.fetch_add(executed, std::memory_order_relaxed);
      } catch (const common::CancelledError&) {
        // A peer failed or the watchdog cancelled: exit quietly.
      } catch (const std::exception& e) {
        ctx.cancel.cancel(common::CancelCause::kWorkerFailed, "map-combine",
                          "worker-" + std::to_string(worker), e.what());
        throw;
      }
    });
    result.tasks_executed = tasks_executed.load();
  }

  void reduce(PoolSet& pools) {
    sched::parallel_tree_merge(pools.mapper_pool(), locals_);
  }

  void collect(RunResult<key_type, value_type>& result) {
    result.pairs = containers::to_pairs(locals_[0]);
  }

 private:
  std::vector<Container> locals_;
};

}  // namespace ramr::engine
