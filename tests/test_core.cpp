// Tests for the RAMR decoupled runtime: correctness against serial
// references and the baseline runtime, knob sweeps (ratio, batch, queue
// capacity, pinning), stress configurations, and pipeline
// diagnostics.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/env.hpp"
#include "core/runtime.hpp"
#include "mini_apps.hpp"
#include "phoenix/runtime.hpp"
#include "topology/topology.hpp"

namespace ramr::core {
namespace {

using testing::make_lines;
using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;
using testing::WordCountMiniApp;

RuntimeConfig small_config(std::size_t mappers, std::size_t combiners) {
  RuntimeConfig cfg;
  cfg.num_mappers = mappers;
  cfg.num_combiners = combiners;
  cfg.pin_policy = PinPolicy::kOsDefault;  // host may be tiny
  cfg.queue_capacity = 512;
  cfg.batch_size = 32;
  return cfg;
}

TEST(RamrRuntime, ModCountMatchesReference) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 1);
  // The input affords the probe, whose plan may be fused: pin the pipeline
  // to count its pushes.
  RuntimeConfig cfg = small_config(3, 2);
  cfg.adapt_mode = AdaptMode::kOff;
  Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_GT(result.queue_pushes, 0u);
  EXPECT_EQ(result.queue_pushes, input.size());  // one record per element
}

TEST(RamrRuntime, WordCountStringsThroughPipeline) {
  const WordCountMiniApp app;
  const auto input = make_lines(400, 2);
  Runtime<WordCountMiniApp> rt(topo::host(), small_config(2, 2));
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
}

TEST(RamrRuntime, AgreesWithPhoenixBaseline) {
  const ModCountApp app;
  const auto input = make_numbers(8000, 3);
  phoenix::Options po;
  po.num_workers = 3;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<ModCountApp> baseline(topo::host(), po);
  Runtime<ModCountApp> ramr(topo::host(), small_config(3, 1));
  EXPECT_EQ(baseline.run(app, input).pairs, ramr.run(app, input).pairs);
}

TEST(RamrRuntime, EmptyInput) {
  const ModCountApp app;
  Runtime<ModCountApp> rt(topo::host(), small_config(2, 1));
  const auto result = rt.run(app, {});
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.queue_pushes, 0u);
}

TEST(RamrRuntime, ManyMappersOneCombiner) {
  const ModCountApp app;
  const auto input = make_numbers(20000, 4);
  Runtime<ModCountApp> rt(topo::host(), small_config(6, 1));
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

TEST(RamrRuntime, EqualMappersAndCombiners) {
  const ModCountApp app;
  const auto input = make_numbers(20000, 5);
  Runtime<ModCountApp> rt(topo::host(), small_config(4, 4));
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

TEST(RamrRuntime, TinyQueueForcesBlockingButStaysCorrect) {
  const ModCountApp app;
  const auto input = make_numbers(30000, 6);
  RuntimeConfig cfg = small_config(3, 1);
  cfg.queue_capacity = 4;  // heavy backpressure
  cfg.batch_size = 2;
  Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_GT(result.queue_failed_pushes, 0u);  // backpressure really happened
}

class RamrKnobSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

TEST_P(RamrKnobSweep, AllConfigurationsProduceIdenticalOutput) {
  const auto [mappers, combiners, capacity, batch] = GetParam();
  if (combiners > mappers) {
    GTEST_SKIP() << "combiner pool may not exceed mapper pool (Sec. III)";
  }
  const ModCountApp app;
  const auto input = make_numbers(6000, 42);
  RuntimeConfig cfg = small_config(mappers, combiners);
  cfg.queue_capacity = capacity;
  cfg.batch_size = std::min(batch, capacity);
  Runtime<ModCountApp> rt(topo::host(), cfg);
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RamrKnobSweep,
    ::testing::Combine(::testing::Values(1, 2, 5),   // mappers
                       ::testing::Values(1, 2),      // combiners (<= mappers)
                       ::testing::Values(8, 5000),   // queue capacity
                       ::testing::Values(1, 64)));   // batch size

TEST(RamrRuntime, CombinersNeverExceedMappers) {
  EXPECT_THROW(Runtime<ModCountApp>(topo::host(), small_config(1, 2)),
               ConfigError);
}

TEST(RamrRuntime, TaskSizeKnobRespected) {
  ModCountApp app;
  app.chunk = 50;
  const auto input = make_numbers(1000, 8);  // 20 splits
  RuntimeConfig cfg = small_config(2, 1);
  cfg.task_size = 6;  // ceil(20/6) = 4 tasks
  Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  EXPECT_EQ(result.tasks_executed, 4u);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
}

TEST(RamrRuntime, OptionalReducerAppliedToEveryKey) {
  // The per-key reducer (Phoenix++ idiom) runs after containers merge, in
  // both runtimes, exactly once per key.
  const testing::BucketAverageApp app;
  const auto input = make_numbers(5000, 33);
  const auto ref = app.reference(input);

  Runtime<testing::BucketAverageApp> ramr(topo::host(), small_config(2, 2));
  phoenix::Options po;
  po.num_workers = 3;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<testing::BucketAverageApp> baseline(topo::host(), po);

  for (const auto& result : {ramr.run(app, input), baseline.run(app, input)}) {
    ASSERT_EQ(result.pairs.size(), ref.size());
    for (const auto& [k, acc] : result.pairs) {
      // Relative tolerance: summation order differs across threads.
      EXPECT_NEAR(acc.sum, ref.at(k), 1e-9 * std::abs(ref.at(k)))
          << "bucket " << k;
      EXPECT_GT(acc.n, 0u);
    }
  }
  static_assert(mr::HasReducer<testing::BucketAverageApp>);
  static_assert(!mr::HasReducer<testing::ModCountApp>);
}

TEST(RamrRuntime, BlockedSplitDistributionStaysCorrect) {
  const ModCountApp app;
  const auto input = make_numbers(9000, 21);
  RuntimeConfig cfg = small_config(3, 1);
  cfg.split_distribution = SplitDistribution::kBlocked;
  Runtime<ModCountApp> rt(topo::host(), cfg);
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

TEST(RamrRuntime, ReusableAcrossRuns) {
  const ModCountApp app;
  Runtime<ModCountApp> rt(topo::host(), small_config(2, 2));
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto input = make_numbers(2000 + 500 * seed, seed);
    EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
  }
}

TEST(RamrRuntime, PinnedPlanOnModelledTopologyStaysCorrect) {
  // Haswell model on a small host: pins fail gracefully; output unaffected.
  const ModCountApp app;
  const auto input = make_numbers(5000, 9);
  RuntimeConfig cfg;
  cfg.num_mappers = 4;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kRamrPaired;
  Runtime<ModCountApp> rt(topo::haswell_server(), cfg);
  EXPECT_EQ(rt.plan().policy, PinPolicy::kRamrPaired);
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

TEST(RamrRuntime, DerivedWorkerCountsFromTopologyAndRatio) {
  RuntimeConfig cfg;
  cfg.mapper_combiner_ratio = 3;
  cfg.pin_policy = PinPolicy::kOsDefault;
  Runtime<ModCountApp> rt(topo::fig3_example(), cfg);  // 16 logical CPUs
  EXPECT_EQ(rt.config().num_mappers, 12u);
  EXPECT_EQ(rt.config().num_combiners, 4u);
}

TEST(RamrRuntime, EnvKnobsDriveRunOnce) {
  env::ScopedOverride m("RAMR_MAPPERS", "2");
  env::ScopedOverride c("RAMR_COMBINERS", "1");
  env::ScopedOverride q("RAMR_QUEUE_CAPACITY", "256");
  env::ScopedOverride b("RAMR_BATCH_SIZE", "16");
  env::ScopedOverride p("RAMR_PIN_POLICY", "os");
  const ModCountApp app;
  const auto input = make_numbers(3000, 10);
  const auto result = run_once(app, input, RuntimeConfig::from_env());
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
}

TEST(RamrRuntime, BatchStatisticsReported) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 11);
  Runtime<ModCountApp> rt(topo::host(), small_config(2, 1));
  const auto result = rt.run(app, input);
  EXPECT_GT(result.queue_batches, 0u);
  // Batched consume must move multiple elements per batch on average.
  EXPECT_GT(result.queue_pushes / result.queue_batches, 1u);
}

TEST(RamrRuntime, MapperThroughputSkewStaysCorrect) {
  // Mapper 0 gets nearly all the work (single split covering most input):
  // combiners must drain the skewed queue and exit cleanly.
  ModCountApp app;
  app.chunk = 10000;
  const auto input = make_numbers(10100, 12);  // 2 splits: 10000 + 100
  Runtime<ModCountApp> rt(topo::host(), small_config(2, 2));
  EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

}  // namespace
}  // namespace ramr::core
