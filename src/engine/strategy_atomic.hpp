// AtomicGlobal — the MRPhi coupling strategy (paper Sec. II related work:
// Lu et al., "Optimizing the MapReduce framework on Intel Xeon Phi
// coprocessor").
//
// ONE worker pool, ONE globally shared atomically-accessed container (no
// thread-local containers, no combine phase, no reduce-phase merging — the
// paper: "an atomically-accessed global container was favored instead of
// thread-local containers"). Map emissions go straight to the global array
// with atomic fetch-ops; the merge phase reads it out sorted. Where
// Phoenix++ pays reduce-phase merging and RAMR pays queue traffic, this
// strategy pays coherence contention on hot keys.
//
// Restricted, like the original, to apps whose combiner is an atomic
// fetch-op over an a-priori key range (AtomicArrayContainer) — HG/LR-class
// workloads; WC-class arbitrary keys do not fit this design.
//
// Failure protocol: same cooperative-cancellation contract as the other
// strategies (poll at task boundaries, quiet exit on CancelledError,
// attribute real failures on the token).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>

#include "common/cancellation.hpp"
#include "containers/container_traits.hpp"
#include "engine/app_model.hpp"
#include "engine/emit_strategy.hpp"
#include "engine/result.hpp"

namespace ramr::engine {

template <mr::GlobalAppSpec App>
class AtomicGlobal {
 public:
  using Container = typename App::container_type;
  using key_type = typename Container::key_type;
  using value_type = typename Container::value_type;
  static constexpr bool kHasReduce = false;  // the container is already global
  static constexpr const char* kName = "atomic-global";

  void map_combine(MapCombineContext& ctx, const App& app,
                   const typename App::input_type& input,
                   RunResult<key_type, value_type>& result) {
    // The whole map IS the combine: atomic fetch-ops on the shared array.
    ctx.injector.on_container_alloc();
    global_.emplace(app.make_global_container());
    Container& global = *global_;
    std::atomic<std::size_t> tasks_executed{0};
    ctx.pools.mapper_pool().run_on_all([&](std::size_t worker) {
      run_worker(ctx, app, input, worker, tasks_executed,
                 [&](const key_type& k, const value_type& v) {
                   ctx.injector.on_emit(worker);
                   global.emit(k, v);
                 });
    });
    result.tasks_executed = tasks_executed.load();
  }

  void reduce(PoolSet&) {}  // never called: kHasReduce is false

  // Reads on the atomic array are safe here: the emitting phase quiesced
  // at the map-combine pool join.
  void collect(RunResult<key_type, value_type>& result) {
    result.pairs = containers::to_pairs(*global_);
  }

 private:
  template <typename Emit>
  void run_worker(MapCombineContext& ctx, const App& app,
                  const typename App::input_type& input, std::size_t worker,
                  std::atomic<std::size_t>& tasks_executed,
                  Emit&& emit) {
    TaskLoopControl ctl = TaskLoopControl::create(ctx, worker);
    ActiveScope live(ctl.beat);
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
  }

  std::optional<Container> global_;
};

}  // namespace ramr::engine
