// Tests for the execution-trace subsystem and its runtime integration.
#include <gtest/gtest.h>

#include <thread>

#include "common/config.hpp"
#include "core/runtime.hpp"
#include "mini_apps.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace ramr::trace {
namespace {

TEST(Lane, RecordsEventsInOrder) {
  Recorder rec;
  Lane& lane = rec.lane("worker");
  lane.record(rec.epoch(), EventKind::kTaskStart, 1);
  lane.record(rec.epoch(), EventKind::kTaskEnd, 1);
  ASSERT_EQ(lane.events().size(), 2u);
  EXPECT_EQ(lane.events()[0].kind, EventKind::kTaskStart);
  EXPECT_EQ(lane.events()[1].kind, EventKind::kTaskEnd);
  EXPECT_LE(lane.events()[0].seconds, lane.events()[1].seconds);
  EXPECT_EQ(lane.events()[0].arg, 1u);
}

TEST(Lane, BoundedCapacityDropsInsteadOfGrowing) {
  Recorder rec(/*per_lane_capacity=*/4);
  Lane& lane = rec.lane("small");
  for (int i = 0; i < 10; ++i) {
    lane.record(rec.epoch(), EventKind::kDrainActive, 0);
  }
  EXPECT_EQ(lane.events().size(), 4u);
  EXPECT_EQ(lane.dropped(), 6u);
}

TEST(Recorder, LaneLookupIsIdempotent) {
  Recorder rec;
  Lane& a = rec.lane("x");
  Lane& b = rec.lane("x");
  EXPECT_EQ(&a, &b);
  rec.lane("y");
  EXPECT_EQ(rec.lane_count(), 2u);
}

TEST(Recorder, SealsAgainstNewLanesOnceRecordingStarts) {
  Recorder rec;
  Lane& lane = rec.lane("setup");
  EXPECT_FALSE(rec.sealed());
  lane.record(rec.epoch(), EventKind::kTaskStart, 0);
  EXPECT_TRUE(rec.sealed());
  // Looking up an existing lane stays valid (long-lived recorders span
  // several run() calls)...
  EXPECT_EQ(&rec.lane("setup"), &lane);
  // ...but creating a NEW lane violates the setup-only contract.
  EXPECT_THROW(rec.lane("late"), Error);
  EXPECT_EQ(rec.lane_count(), 1u);
}

TEST(EventKinds, NewKindsHaveNames) {
  EXPECT_STREQ(to_string(EventKind::kBackoffSleep), "backoff-sleep");
  EXPECT_STREQ(to_string(EventKind::kTaskRetry), "task-retry");
}

TEST(Recorder, CollectMergesAndSortsAcrossLanes) {
  Recorder rec;
  Lane& a = rec.lane("a");
  Lane& b = rec.lane("b");
  a.record(rec.epoch(), EventKind::kTaskStart, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  b.record(rec.epoch(), EventKind::kTaskStart, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  a.record(rec.epoch(), EventKind::kTaskEnd, 0);
  const auto all = rec.collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LE(all[0].seconds, all[1].seconds);
  EXPECT_LE(all[1].seconds, all[2].seconds);
  EXPECT_EQ(all[0].lane, 0u);
  EXPECT_EQ(all[1].lane, 1u);
  EXPECT_GT(rec.span(), 0.0);
}

TEST(Render, EmptyRecorderSaysSo) {
  Recorder rec;
  EXPECT_EQ(render_timeline(rec), "(no events)\n");
}

TEST(Render, TimelineShowsActiveBuckets) {
  Recorder rec;
  Lane& lane = rec.lane("m0");
  lane.record(rec.epoch(), EventKind::kTaskStart, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  lane.record(rec.epoch(), EventKind::kTaskEnd, 0);
  const std::string out = render_timeline(rec, 10);
  EXPECT_NE(out.find("m0"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_THROW(render_timeline(rec, 0), Error);
}

TEST(RuntimeIntegration, RamrRunProducesCoherentTrace) {
  const testing::ModCountApp app;
  const auto input = testing::make_numbers(5000, 3);
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 256;
  cfg.batch_size = 32;
  core::Runtime<testing::ModCountApp> rt(topo::host(), cfg);
  Recorder rec;
  rt.set_recorder(&rec);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(testing::pairs_match(result.pairs, app.reference(input)));

  // Lanes: the driver's phase-mark lane + 2 mappers + 1 combiner.
  EXPECT_EQ(rec.lane_count(), 4u);
  std::size_t task_starts = 0;
  std::size_t task_ends = 0;
  std::size_t closes = 0;
  std::size_t done = 0;
  std::size_t drained = 0;
  for (const Event& e : rec.collect()) {
    switch (e.kind) {
      case EventKind::kTaskStart: ++task_starts; break;
      case EventKind::kTaskEnd: ++task_ends; break;
      case EventKind::kStreamClose: ++closes; break;
      case EventKind::kDrainDone: ++done; break;
      case EventKind::kDrainActive: drained += e.arg; break;
      default: break;
    }
  }
  EXPECT_EQ(task_starts, task_ends);
  EXPECT_EQ(task_starts, result.tasks_executed);
  EXPECT_EQ(closes, 2u);  // one per mapper
  EXPECT_EQ(done, 1u);    // one combiner
  EXPECT_EQ(drained, result.queue_pushes);  // every record drained once

  // Rendering works on a real trace.
  const std::string timeline = render_timeline(rec, 40);
  EXPECT_NE(timeline.find("mapper-0"), std::string::npos);
  EXPECT_NE(timeline.find("combiner-0"), std::string::npos);
  EXPECT_FALSE(summarize(rec).empty());
}

TEST(RuntimeIntegration, BackoffSleepEventsMatchTheResultCounter) {
  // Tiny ring + tiny batches force backpressure, so the blocking waits
  // actually fire. Each blocking wait records one kBackoffSleep event, so
  // the sum of their args must equal the aggregate the result reports —
  // regardless of scheduling.
  // The static plan: a decided run would add probe slices the recorder
  // does not see.
  const testing::ModCountApp app;
  const auto input = testing::make_numbers(20000, 3);
  RuntimeConfig cfg;
  cfg.adapt_mode = AdaptMode::kOff;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 8;
  cfg.batch_size = 4;
  core::Runtime<testing::ModCountApp> rt(topo::host(), cfg);
  // Idle combiners record one drain-idle event per sweep, so the lanes need
  // room well beyond the default: the invariant only holds when no lane
  // dropped events (asserted below).
  Recorder rec(/*per_lane_capacity=*/1 << 22);
  rt.set_recorder(&rec);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(testing::pairs_match(result.pairs, app.reference(input)));

  std::size_t slept = 0;
  for (const Event& e : rec.collect()) {
    if (e.kind == EventKind::kBackoffSleep) slept += e.arg;
  }
  for (std::size_t i = 0; i < rec.lane_count(); ++i) {
    ASSERT_EQ(rec.lane_at(i).dropped(), 0u) << rec.lane_at(i).name();
  }
  EXPECT_EQ(slept, result.backoff_sleeps);
}

TEST(RuntimeIntegration, TaskRetryEventsMatchTheResultCounter) {
  // One injected transient failure on the first map task; with a retry
  // budget the task re-executes exactly once and the retry is traced.
  const testing::ModCountApp app;
  const auto input = testing::make_numbers(2000, 3);
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 256;
  cfg.batch_size = 32;
  cfg.max_task_retries = 1;
  cfg.fault_spec = "map_task=0,map_transient=1,map_fires=1";
  core::Runtime<testing::ModCountApp> rt(topo::host(), cfg);
  Recorder rec;
  rt.set_recorder(&rec);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(testing::pairs_match(result.pairs, app.reference(input)));
  EXPECT_EQ(result.task_retries, 1u);

  std::size_t retries = 0;
  for (const Event& e : rec.collect()) {
    if (e.kind == EventKind::kTaskRetry) ++retries;
  }
  EXPECT_EQ(retries, result.task_retries);
}

TEST(RuntimeIntegration, TracingIsOptIn) {
  // Without a recorder the run must not create lanes anywhere (no crash,
  // no overhead path) — just complete correctly.
  const testing::ModCountApp app;
  const auto input = testing::make_numbers(1000, 4);
  RuntimeConfig cfg;
  cfg.num_mappers = 1;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  core::Runtime<testing::ModCountApp> rt(topo::host(), cfg);
  EXPECT_TRUE(
      testing::pairs_match(rt.run(app, input).pairs, app.reference(input)));
}

}  // namespace
}  // namespace ramr::trace
