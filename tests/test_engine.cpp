// Tests for the unified execution engine: PoolSet pin resolution per
// policy, PhaseDriver error-join semantics (mapper throw, combiner throw),
// trace wiring for every strategy, and cross-strategy result parity on the
// mini apps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "containers/atomic_array_container.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_atomic.hpp"
#include "engine/strategy_fused.hpp"
#include "engine/strategy_pipelined.hpp"
#include "mini_apps.hpp"
#include "topology/pinning.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace ramr::engine {
namespace {

using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;

// ---------- PoolSet: pin resolution per policy -----------------------------------

TEST(PoolSet, SinglePoolOsDefaultLeavesEveryWorkerUnpinned) {
  PoolSet pools(topo::fig3_example(), 6, PinPolicy::kOsDefault);
  EXPECT_FALSE(pools.dual());
  EXPECT_EQ(pools.num_mappers(), 6u);
  EXPECT_EQ(pools.num_combiners(), 0u);
  for (const auto& pin : pools.mapper_pins()) {
    EXPECT_FALSE(pin.has_value());
  }
}

TEST(PoolSet, SinglePoolCarriesTheCallersKnobsAndRebindsThem) {
  // A fused run stamps its plan from config(), so the single shape keeps
  // the caller's knobs.
  RuntimeConfig cfg;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.batch_size = 32;
  cfg.queue_capacity = 256;
  cfg.obs = ObsLevel::kFull;
  PoolSet pools(topo::fig3_example(), 6, cfg);
  EXPECT_EQ(pools.config().num_mappers, 6u);
  EXPECT_EQ(pools.config().num_combiners, 0u);
  EXPECT_EQ(pools.config().batch_size, 32u);
  EXPECT_EQ(pools.config().queue_capacity, 256u);
  EXPECT_EQ(pools.config().obs, ObsLevel::kFull);

  RuntimeConfig next = cfg;
  next.batch_size = 64;
  next.num_mappers = 2;  // the worker count is the shape: rebind keeps it
  pools.rebind(next);
  EXPECT_EQ(pools.config().batch_size, 64u);
  EXPECT_EQ(pools.config().num_mappers, 6u);
  EXPECT_EQ(pools.num_mappers(), 6u);

  next.pin_policy = PinPolicy::kRoundRobin;
  EXPECT_THROW(pools.rebind(next), ConfigError);
}

TEST(PoolSet, SinglePoolRoundRobinPinsInOsIdOrder) {
  const auto topo = topo::fig3_example();
  PoolSet pools(topo, topo.num_logical() + 2, PinPolicy::kRoundRobin);
  ASSERT_EQ(pools.mapper_pins().size(), topo.num_logical() + 2);
  for (std::size_t i = 0; i < pools.mapper_pins().size(); ++i) {
    ASSERT_TRUE(pools.mapper_pins()[i].has_value());
    EXPECT_EQ(*pools.mapper_pins()[i],
              topo.cpus()[i % topo.num_logical()].os_id);
  }
}

TEST(PoolSet, SinglePoolPairedPolicyDegeneratesToProximityOrder) {
  // With a single pool there is no mapper/combiner pair structure; the
  // paired policy walks the topology's proximity order instead.
  const auto topo = topo::haswell_server();
  const auto order = topo.proximity_order();
  PoolSet pools(topo, 8, PinPolicy::kRamrPaired);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(pools.mapper_pins()[i].has_value());
    EXPECT_EQ(*pools.mapper_pins()[i], order[i % order.size()]);
  }
}

TEST(PoolSet, SinglePoolZeroWorkersFillsTopology) {
  PoolSet pools(topo::fig3_example(), 0, PinPolicy::kOsDefault);
  EXPECT_EQ(pools.num_mappers(), 16u);
}

TEST(PoolSet, DualPoolPairedPinsFollowThePinningPlan) {
  const auto topo = topo::haswell_server();
  RuntimeConfig cfg;
  cfg.num_mappers = 6;
  cfg.num_combiners = 3;
  cfg.pin_policy = PinPolicy::kRamrPaired;
  PoolSet pools(topo, cfg);
  EXPECT_TRUE(pools.dual());
  const auto plan = topo::make_plan(topo, PinPolicy::kRamrPaired, 6, 3);
  ASSERT_EQ(pools.mapper_pins().size(), 6u);
  ASSERT_EQ(pools.combiner_pins().size(), 3u);
  for (std::size_t m = 0; m < 6; ++m) {
    ASSERT_TRUE(pools.mapper_pins()[m].has_value());
    EXPECT_EQ(*pools.mapper_pins()[m], plan.mapper_cpu[m]);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(pools.combiner_pins()[j].has_value());
    EXPECT_EQ(*pools.combiner_pins()[j], plan.combiner_cpu[j]);
  }
}

TEST(PoolSet, DualPoolOsDefaultLeavesPinsEmpty) {
  RuntimeConfig cfg;
  cfg.num_mappers = 3;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  PoolSet pools(topo::host(), cfg);
  for (const auto& pin : pools.mapper_pins()) EXPECT_FALSE(pin.has_value());
  for (const auto& pin : pools.combiner_pins()) EXPECT_FALSE(pin.has_value());
}

TEST(PoolSet, DualPoolResolvesDerivedWorkerCounts) {
  RuntimeConfig cfg;
  cfg.mapper_combiner_ratio = 3;
  cfg.pin_policy = PinPolicy::kOsDefault;
  PoolSet pools(topo::fig3_example(), cfg);  // 16 logical CPUs
  EXPECT_EQ(pools.config().num_mappers, 12u);
  EXPECT_EQ(pools.config().num_combiners, 4u);
}

TEST(PoolSet, DualPoolRejectsMoreCombinersThanMappers) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 4;
  EXPECT_THROW(PoolSet(topo::host(), cfg), ConfigError);
}

TEST(FusedWidth, EveryCpuUnlessTheCallerFixedTheWorkerCounts) {
  const auto topo = topo::fig3_example();  // 16 logical CPUs
  RuntimeConfig cfg;
  EXPECT_EQ(fused_width(topo, cfg), 16u);
  cfg.mapper_combiner_ratio = 3;  // the ratio alone fixes no count
  EXPECT_EQ(fused_width(topo, cfg), 16u);
  cfg.num_mappers = 6;  // combiners derived: 6 / 3
  EXPECT_EQ(fused_width(topo, cfg), 8u);
  cfg.num_combiners = 1;
  EXPECT_EQ(fused_width(topo, cfg), 7u);
  cfg.num_mappers = 0;  // mappers derived: 1 * 3
  EXPECT_EQ(fused_width(topo, cfg), 4u);
  // A resolved config reads as fixed (10 + 5): pass the config as given.
  EXPECT_EQ(fused_width(topo, RuntimeConfig{}.resolved(16)), 15u);
  EXPECT_EQ(fused_width(topo::host(), RuntimeConfig{}),
            topo::host().num_logical());
}

// ---------- PhaseDriver: error-join semantics ------------------------------------

RuntimeConfig tiny_dual_config() {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 8;  // tiny: mappers block quickly on failure
  cfg.batch_size = 2;
  return cfg;
}

struct ThrowingMapApp {
  using input_type = std::vector<int>;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t, containers::CountCombiner>;

  std::size_t num_splits(const input_type& in) const { return in.size(); }
  container_type make_container() const { return container_type(8); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    if (in[split] < 0) throw Error("poisoned split");
    emit(static_cast<std::uint64_t>(in[split]) % 8, std::uint64_t{1});
  }
};

// Combiner-side failure: the container capacity is exhausted inside the
// combiner's emit, not in map.
struct TinyHashApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::FixedHashContainer<std::uint64_t, std::uint64_t,
                                     containers::CountCombiner>;
  std::size_t num_splits(const input_type& in) const { return in.size(); }
  container_type make_container() const { return container_type(4); }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    emit(in[split], std::uint64_t{1});
  }
};

TEST(PhaseDriver, MapperThrowJoinsBothPoolsAndStaysReusable) {
  PoolSet pools(topo::host(), tiny_dual_config());
  PhaseDriver driver(pools);
  std::vector<int> poisoned(200, 1);
  poisoned[123] = -1;
  {
    PipelinedSpsc<ThrowingMapApp> strategy;
    EXPECT_THROW(driver.run(strategy, ThrowingMapApp{}, poisoned), Error);
  }
  // Both pools were joined: a clean run on the same driver succeeds.
  const std::vector<int> clean(200, 2);
  PipelinedSpsc<ThrowingMapApp> strategy;
  const auto result = driver.run(strategy, ThrowingMapApp{}, clean);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].second, 200u);
}

TEST(PhaseDriver, CombinerThrowAbortsBlockedMappersAndStaysReusable) {
  PoolSet pools(topo::host(), tiny_dual_config());
  PhaseDriver driver(pools);
  std::vector<std::uint64_t> input(500);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;
  {
    PipelinedSpsc<TinyHashApp> strategy;
    EXPECT_THROW(driver.run(strategy, TinyHashApp{}, input), Error);
  }
  std::vector<std::uint64_t> small(100);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = i % 4;
  PipelinedSpsc<TinyHashApp> strategy;
  const auto result = driver.run(strategy, TinyHashApp{}, small);
  EXPECT_EQ(result.pairs.size(), 4u);
}

// A mapper failure mid-phase with batched emit on: the failing worker's
// unwind path must flush/discard its buffer without hanging the combiner
// or the peer mapper (the cancel token interrupts a blocked flush).
struct FailingModApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type = ModCountApp::container_type;

  ModCountApp inner;

  std::size_t num_splits(const input_type& in) const {
    return inner.num_splits(in);
  }
  container_type make_container() const { return inner.make_container(); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * inner.chunk;
    const std::size_t end = std::min(begin + inner.chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      if (in[i] == 777) {
        throw Error("injected map failure");
      }
      emit(in[i] % inner.buckets, std::uint64_t{1});
    }
  }
};

TEST(PhaseDriver, MapFailureUnderBatchedEmitJoinsCleanly) {
  RuntimeConfig cfg = tiny_dual_config();  // tiny ring: producers block
  cfg.emit_batch = 4;
  PoolSet pools(topo::host(), cfg);
  PhaseDriver driver(pools);
  PipelinedSpsc<FailingModApp> strategy;
  auto input = make_numbers(50000, 3);
  input[input.size() / 2] = 777;  // poison one split mid-stream
  EXPECT_THROW(driver.run(strategy, FailingModApp{}, input), Error);

  // The same pools run clean work afterwards.
  PhaseDriver driver2(pools);
  PipelinedSpsc<ModCountApp> ok;
  const auto small = make_numbers(2000, 5);
  const auto result = driver2.run(ok, ModCountApp{}, small);
  EXPECT_TRUE(pairs_match(result.pairs, ModCountApp{}.reference(small)));
}

TEST(PhaseDriver, FusedStrategyPropagatesMapExceptions) {
  PoolSet pools(topo::host(), 2, PinPolicy::kOsDefault);
  PhaseDriver driver(pools);
  std::vector<int> poisoned(100, 1);
  poisoned[57] = -1;
  {
    FusedCombine<ThrowingMapApp> strategy;
    EXPECT_THROW(driver.run(strategy, ThrowingMapApp{}, poisoned), Error);
  }
  const std::vector<int> clean(100, 1);
  FusedCombine<ThrowingMapApp> strategy;
  const auto result = driver.run(strategy, ThrowingMapApp{}, clean);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].second, 100u);
}

// ---------- cross-strategy result parity -----------------------------------------

// The ModCount workload expressed for the atomic-global strategy: same map
// body, shared atomically-accessed container.
struct ModCountGlobalApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::AtomicArrayContainer<std::uint64_t,
                                       containers::AtomicOp::kAdd>;

  ModCountApp base;

  std::size_t num_splits(const input_type& in) const {
    return base.num_splits(in);
  }
  container_type make_global_container() const {
    return container_type(base.buckets);
  }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    base.map(in, split, emit);
  }
};

TEST(Engine, AllThreeStrategiesProduceIdenticalPairs) {
  const ModCountApp app;
  const ModCountGlobalApp global_app;
  const auto input = make_numbers(12000, 17);
  const auto ref = app.reference(input);

  PoolSet single(topo::host(), 3, PinPolicy::kOsDefault);
  PhaseDriver fused_driver(single);
  FusedCombine<ModCountApp> fused;
  const auto fused_result = fused_driver.run(fused, app, input);

  RuntimeConfig cfg = tiny_dual_config();
  cfg.queue_capacity = 256;
  cfg.batch_size = 32;
  PoolSet dual(topo::host(), cfg);
  PhaseDriver pipelined_driver(dual);
  PipelinedSpsc<ModCountApp> pipelined;
  const auto pipelined_result = pipelined_driver.run(pipelined, app, input);

  PoolSet atomic_pool(topo::host(), 3, PinPolicy::kOsDefault);
  PhaseDriver atomic_driver(atomic_pool);
  AtomicGlobal<ModCountGlobalApp> atomic;
  const auto atomic_result = atomic_driver.run(atomic, global_app, input);

  EXPECT_TRUE(pairs_match(fused_result.pairs, ref));
  EXPECT_EQ(fused_result.pairs, pipelined_result.pairs);
  EXPECT_EQ(fused_result.pairs, atomic_result.pairs);

  // The unified result reports queue traffic only for the pipelined
  // strategy, and a reduce phase only where one exists.
  EXPECT_EQ(fused_result.queue_pushes, 0u);
  EXPECT_GT(pipelined_result.queue_pushes, 0u);
  EXPECT_EQ(atomic_result.queue_pushes, 0u);
  EXPECT_DOUBLE_EQ(atomic_result.timers.seconds(Phase::kReduce), 0.0);
}

RunResult<std::uint64_t, std::uint64_t> run_mod_count_pipelined(
    std::size_t emit_batch) {
  RuntimeConfig cfg = tiny_dual_config();
  cfg.queue_capacity = 64;
  cfg.batch_size = 8;
  cfg.emit_batch = emit_batch;
  PoolSet pools(topo::host(), cfg);
  PhaseDriver driver(pools);
  PipelinedSpsc<ModCountApp> strategy;
  const auto input = make_numbers(20000, 42);
  return driver.run(strategy, ModCountApp{}, input);
}

TEST(Engine, BatchedEmitMatchesElementWiseResults) {
  const auto element_wise = run_mod_count_pipelined(0);
  const auto batched = run_mod_count_pipelined(16);
  ASSERT_EQ(batched.pairs.size(), element_wise.pairs.size());
  EXPECT_EQ(batched.pairs, element_wise.pairs);
  // Batched emit actually engaged, and only when asked for.
  EXPECT_GT(batched.queue_push_batches, 0u);
  EXPECT_EQ(element_wise.queue_push_batches, 0u);
}

// ---------- trace wiring for every strategy --------------------------------------

TEST(Engine, TracedFusedRunProducesNonEmptyWorkerLanes) {
  // The acceptance bar for the engine refactor: a traced Phoenix-style
  // (fused) run records real events, not just RAMR runs.
  const ModCountApp app;
  const auto input = make_numbers(5000, 5);
  PoolSet pools(topo::host(), 2, PinPolicy::kOsDefault);
  PhaseDriver driver(pools);
  trace::Recorder rec;
  driver.set_recorder(&rec);
  FusedCombine<ModCountApp> strategy;
  const auto result = driver.run(strategy, app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));

  ASSERT_EQ(rec.lane_count(), 3u);  // driver phase lane + one per worker
  std::size_t task_starts = 0;
  std::size_t task_ends = 0;
  for (const trace::Event& e : rec.collect()) {
    if (e.kind == trace::EventKind::kTaskStart) ++task_starts;
    if (e.kind == trace::EventKind::kTaskEnd) ++task_ends;
  }
  EXPECT_GT(task_starts, 0u);
  EXPECT_EQ(task_starts, task_ends);
  EXPECT_EQ(task_starts, result.tasks_executed);
  const std::string timeline = trace::render_timeline(rec, 40);
  EXPECT_NE(timeline.find("worker-0"), std::string::npos);
}

TEST(Engine, TracedAtomicGlobalRunProducesNonEmptyWorkerLanes) {
  const ModCountGlobalApp app;
  const auto input = make_numbers(4000, 6);
  PoolSet pools(topo::host(), 2, PinPolicy::kOsDefault);
  PhaseDriver driver(pools);
  trace::Recorder rec;
  driver.set_recorder(&rec);
  AtomicGlobal<ModCountGlobalApp> strategy;
  const auto result = driver.run(strategy, app, input);
  EXPECT_GT(result.tasks_executed, 0u);
  EXPECT_EQ(rec.lane_count(), 3u);  // driver phase lane + one per worker
  EXPECT_GT(rec.collect().size(), 0u);
}

}  // namespace
}  // namespace ramr::engine
