// Fault-injection matrix for the execution engine (docs/ARCHITECTURE.md §6):
// injected mapper/combiner/allocation failures across all three coupling
// strategies, transient-fault retry, watchdog verdicts (stall + deadline),
// the join protocol's suppressed-error accounting, and the FaultPlan spec
// parser. Time bounds are deliberately generous — this suite runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "containers/atomic_array_container.hpp"
#include "core/runtime.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_pipelined.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "mini_apps.hpp"
#include "mrphi/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "sched/thread_pool.hpp"
#include "topology/topology.hpp"

namespace ramr {
namespace {

using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;

RuntimeConfig ramr_config(std::size_t mappers, std::size_t combiners) {
  RuntimeConfig cfg;
  cfg.num_mappers = mappers;
  cfg.num_combiners = combiners;
  cfg.pin_policy = PinPolicy::kOsDefault;  // host may be tiny
  cfg.queue_capacity = 512;
  cfg.batch_size = 32;
  return cfg;
}

// ModCountApp whose combiner sleeps on every record, so the combiner is
// live but far slower than the mappers that fill its rings.
struct SlowCombineApp : ModCountApp {
  struct container_type
      : containers::FixedArrayContainer<std::uint64_t,
                                        containers::CountCombiner> {
    using FixedArrayContainer::FixedArrayContainer;
    void emit(std::size_t key, const std::uint64_t& v) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      FixedArrayContainer::emit(key, v);
    }
  };
  container_type make_container() const { return container_type(buckets); }
};

phoenix::Options phoenix_options(std::size_t workers) {
  phoenix::Options o;
  o.num_workers = workers;
  o.pin_policy = PinPolicy::kOsDefault;
  return o;
}

// Minimal MRPhi-shape app (GlobalAppSpec) for the atomic strategy column.
struct ModCountGlobalApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type = containers::AtomicArrayContainer<std::uint64_t>;

  std::size_t buckets = 16;
  std::size_t chunk = 64;

  std::size_t num_splits(const input_type& in) const {
    return (in.size() + chunk - 1) / chunk;
  }
  container_type make_global_container() const {
    return container_type(buckets);
  }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * chunk;
    const std::size_t end = std::min(begin + chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      emit(in[i] % buckets, std::uint64_t{1});
    }
  }
};

// ---------- FaultPlan spec parsing ------------------------------------------

TEST(FaultPlan, EmptySpecDisabled) {
  const auto plan = faults::FaultPlan::parse("");
  EXPECT_FALSE(plan.enabled);
  EXPECT_EQ(plan.map_task, -1);
  EXPECT_EQ(plan.combiner_batch, -1);
  EXPECT_EQ(plan.stall_emit, 0u);
  EXPECT_EQ(plan.alloc, -1);
}

TEST(FaultPlan, ParsesMapSiteFields) {
  const auto plan =
      faults::FaultPlan::parse("map_task=5,map_transient=1,map_fires=2");
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.map_task, 5);
  EXPECT_TRUE(plan.map_transient);
  EXPECT_EQ(plan.map_fires, 2u);
}

TEST(FaultPlan, ParsesAllSites) {
  const auto plan = faults::FaultPlan::parse(
      "combiner_batch=3,combiner=1,stall_emit=10,stall_ms=500,alloc=2,"
      "map_p=0.25,seed=7");
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.combiner_batch, 3);
  EXPECT_EQ(plan.combiner, 1u);
  EXPECT_EQ(plan.stall_emit, 10u);
  EXPECT_EQ(plan.stall_ms, 500u);
  EXPECT_EQ(plan.alloc, 2);
  EXPECT_DOUBLE_EQ(plan.map_p, 0.25);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_FALSE(plan.summary().empty());
}

TEST(FaultPlan, ParsesJobSiteFields) {
  const auto plan = faults::FaultPlan::parse("job_run=2,job_fires=3");
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.job_run, 2);
  EXPECT_EQ(plan.job_fires, 3u);
  EXPECT_NE(plan.summary().find("job_run=2"), std::string::npos);

  const auto prob = faults::FaultPlan::parse("job_p=0.5,seed=9");
  EXPECT_DOUBLE_EQ(prob.job_p, 0.5);
  EXPECT_EQ(prob.seed, 9u);
  EXPECT_NE(prob.summary().find("job_p=0.5"), std::string::npos);
}

TEST(FaultPlan, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(faults::FaultPlan::parse("bogus=1"), ConfigError);
  EXPECT_THROW(faults::FaultPlan::parse("map_task=abc"), ConfigError);
  EXPECT_THROW(faults::FaultPlan::parse("map_p=1.5"), ConfigError);
  EXPECT_THROW(faults::FaultPlan::parse("job_p=-0.1"), ConfigError);
  EXPECT_THROW(faults::FaultPlan::parse("map_task"), ConfigError);
  // The unknown-key error names the valid sites and modifiers, matching
  // the RAMR_* knob-validation convention.
  try {
    faults::FaultPlan::parse("bogus=1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'bogus'"), std::string::npos) << what;
    EXPECT_NE(what.find("job_run"), std::string::npos) << what;
  }
}

TEST(FaultPlan, RejectsInertModifiersNamingTheMissingSite) {
  // A modifier without its site key would silently do nothing; the parser
  // must fail fast and name the inert token.
  for (const char* spec : {"map_fires=2", "map_transient=1", "combiner=1",
                           "stall_ms=100", "job_fires=2", "seed=5"}) {
    try {
      faults::FaultPlan::parse(spec);
      FAIL() << "expected ConfigError for '" << spec << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("inert"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The same modifiers paired with their sites parse fine.
  EXPECT_NO_THROW(faults::FaultPlan::parse("map_task=0,map_fires=2"));
  EXPECT_NO_THROW(faults::FaultPlan::parse("map_p=0.2,map_transient=1"));
  EXPECT_NO_THROW(faults::FaultPlan::parse("combiner_batch=1,combiner=1"));
  EXPECT_NO_THROW(faults::FaultPlan::parse("stall_emit=10,stall_ms=100"));
  EXPECT_NO_THROW(faults::FaultPlan::parse("job_p=0.1,job_fires=2,seed=3"));
}

// ---------- Injector unit behaviour -----------------------------------------

TEST(Injector, DisabledInjectorNeverFires) {
  faults::Injector injector;  // default: disabled
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(injector.on_map_task(i % 3));
    EXPECT_NO_THROW(injector.on_combiner_batch(0, i));
    EXPECT_NO_THROW(injector.on_emit(0));
    EXPECT_NO_THROW(injector.on_container_alloc());
  }
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(Injector, MapSiteFiresBoundedTimes) {
  faults::Injector injector(
      faults::FaultPlan::parse("map_task=0,map_fires=2"));
  EXPECT_THROW(injector.on_map_task(0), faults::InjectedFault);
  EXPECT_THROW(injector.on_map_task(1), faults::InjectedFault);
  EXPECT_NO_THROW(injector.on_map_task(2));  // budget exhausted
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(Injector, TransientFaultIsRetryClassified) {
  faults::Injector injector(
      faults::FaultPlan::parse("map_task=0,map_transient=1"));
  EXPECT_THROW(injector.on_map_task(0), TransientError);
}

TEST(Injector, CombinerSiteFiresOnceOnTheNamedCombinerOnly) {
  faults::Injector injector(
      faults::FaultPlan::parse("combiner_batch=2,combiner=1"));
  EXPECT_NO_THROW(injector.on_combiner_batch(0, 5));  // other combiner
  EXPECT_NO_THROW(injector.on_combiner_batch(1, 1));  // before the batch
  try {
    injector.on_combiner_batch(1, 2);
    FAIL() << "expected a combiner fault";
  } catch (const faults::InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("combiner-1"), std::string::npos);
  }
  EXPECT_NO_THROW(injector.on_combiner_batch(1, 3));  // fires once
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(Injector, JobSiteFiresTransientAndBounded) {
  faults::Injector injector(
      faults::FaultPlan::parse("job_run=0,job_fires=2"));
  // The job boundary is where job-level retry applies, so the site always
  // throws the retry-classified fault type.
  EXPECT_THROW(injector.on_job_run("job-a"), faults::TransientInjectedFault);
  try {
    injector.on_job_run("job-b");
    FAIL() << "expected a job-boundary fault";
  } catch (const TransientError& e) {
    EXPECT_NE(std::string(e.what()).find("job boundary"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("job-b"), std::string::npos);
  }
  EXPECT_NO_THROW(injector.on_job_run("job-c"));  // budget exhausted
  EXPECT_EQ(injector.injected(), 2u);
}

// ---------- injected failures across the three strategies -------------------

TEST(FaultMatrix, PipelinedMapperFaultSurfacesWithAttribution) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 1);
  RuntimeConfig cfg = ramr_config(3, 2);
  cfg.adapt_mode = AdaptMode::kOff;  // one pipelined run, no probe slices
  cfg.fault_spec = "map_task=0";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  try {
    rt.run(app, input);
    FAIL() << "expected an injected fault";
  } catch (const faults::InjectedFault& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected fault: map task"), std::string::npos);
    EXPECT_NE(what.find("mapper-"), std::string::npos);
    EXPECT_NE(what.find("map-combine"), std::string::npos);
  }
}

TEST(FaultMatrix, FusedMapperFaultSurfaces) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 2);
  phoenix::Options o = phoenix_options(3);
  o.fault_spec = "map_task=0";
  phoenix::Runtime<ModCountApp> rt(topo::host(), o);
  EXPECT_THROW(rt.run(app, input), faults::InjectedFault);
}

TEST(FaultMatrix, AtomicMapperFaultSurfaces) {
  const ModCountGlobalApp app;
  const auto input = make_numbers(10000, 3);
  mrphi::Options o;
  o.num_workers = 3;
  o.pin_policy = PinPolicy::kOsDefault;
  o.fault_spec = "map_task=0";
  mrphi::Runtime<ModCountGlobalApp> rt(topo::host(), o);
  EXPECT_THROW(rt.run(app, input), faults::InjectedFault);
}

TEST(FaultMatrix, PipelinedCombinerFaultSurfacesWithAttribution) {
  const ModCountApp app;
  const auto input = make_numbers(20000, 4);
  // One combiner drains every mapper's ring, so combiner 0 always gets a
  // batch. With two, stealing on a loaded machine can leave combiner 0's
  // mappers without a task for the whole (sub-millisecond) map phase.
  RuntimeConfig cfg = ramr_config(3, 1);
  cfg.adapt_mode = AdaptMode::kOff;  // one pipelined run, no probe slices
  cfg.fault_spec = "combiner_batch=1,combiner=0";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  try {
    rt.run(app, input);
    FAIL() << "expected an injected fault";
  } catch (const faults::InjectedFault& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combiner-0"), std::string::npos);
  }
}

TEST(FaultMatrix, PipelinedCombinerFaultReachesBlockedMappers) {
  // A tiny ring keeps the mappers blocked on full rings when the combiner
  // dies: nobody drains or rings their bells again, so only the bounded
  // wait's cancellation poll gets them out, and the run must still end
  // promptly with the combiner's error.
  const ModCountApp app;
  const auto input = make_numbers(20000, 4);
  RuntimeConfig cfg = ramr_config(3, 1);
  cfg.adapt_mode = AdaptMode::kOff;
  cfg.queue_capacity = 8;
  cfg.batch_size = 4;
  cfg.fault_spec = "combiner_batch=1,combiner=0";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run(app, input);
    FAIL() << "expected an injected fault";
  } catch (const faults::InjectedFault& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combiner-0"), std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

TEST(FaultMatrix, BothPoolsFailingStillTerminates) {
  // The join protocol must report one root cause and *suppress* (not hang
  // on, not drop silently) the other pool's failure.
  const ModCountApp app;
  const auto input = make_numbers(20000, 5);
  RuntimeConfig cfg = ramr_config(2, 2);
  cfg.adapt_mode = AdaptMode::kOff;  // one pipelined run, no probe slices
  cfg.fault_spec = "map_task=0,combiner_batch=1";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  EXPECT_THROW(rt.run(app, input), faults::InjectedFault);
}

TEST(FaultMatrix, ContainerAllocationFaultSurfaces) {
  const ModCountApp app;
  const auto input = make_numbers(1000, 6);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.fault_spec = "alloc=0";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  try {
    rt.run(app, input);
    FAIL() << "expected an injected fault";
  } catch (const faults::InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("container allocation"),
              std::string::npos);
  }

  phoenix::Options o = phoenix_options(2);
  o.fault_spec = "alloc=1";
  phoenix::Runtime<ModCountApp> baseline(topo::host(), o);
  EXPECT_THROW(baseline.run(app, input), faults::InjectedFault);
}

// ---------- task-level retry -------------------------------------------------

TEST(TaskRetry, TransientFaultsRetriedToSuccessPipelined) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 7);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.adapt_mode = AdaptMode::kOff;  // one pipelined run, no probe slices
  cfg.fault_spec = "map_task=0,map_transient=1,map_fires=2";
  cfg.max_task_retries = 3;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_EQ(result.task_retries, 2u);  // one retry per injected fire
  EXPECT_EQ(result.task_aborts, 0u);
}

TEST(TaskRetry, TransientFaultsRetriedToSuccessFused) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 8);
  phoenix::Options o = phoenix_options(2);
  o.fault_spec = "map_task=0,map_transient=1,map_fires=2";
  o.max_task_retries = 3;
  phoenix::Runtime<ModCountApp> rt(topo::host(), o);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_EQ(result.task_retries, 2u);
  EXPECT_EQ(result.task_aborts, 0u);
}

TEST(TaskRetry, ExhaustedBudgetAborts) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 9);
  RuntimeConfig cfg = ramr_config(2, 1);
  // Far more fires than the budget of 1 retry can absorb.
  cfg.fault_spec = "map_task=0,map_transient=1,map_fires=100";
  cfg.max_task_retries = 1;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  EXPECT_THROW(rt.run(app, input), TransientError);
}

TEST(TaskRetry, NoRetryBudgetFailsImmediately) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 10);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.fault_spec = "map_task=0,map_transient=1";
  core::Runtime<ModCountApp> rt(topo::host(), cfg);  // max_task_retries = 0
  EXPECT_THROW(rt.run(app, input), TransientError);
}

// ---------- watchdog: stall + deadline ---------------------------------------

TEST(Watchdog, InjectedStallTripsStallVerdict) {
  const ModCountApp app;
  const auto input = make_numbers(40000, 11);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.adapt_mode = AdaptMode::kOff;  // the stall lands on a mapper
  // Emission #100 hangs "forever"; the watchdog must cut the run loose long
  // before the stall would naturally end.
  cfg.fault_spec = "stall_emit=100,stall_ms=60000";
  cfg.stall_timeout_ms = 250;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run(app, input);
    FAIL() << "expected an AbortError";
  } catch (const common::AbortError& e) {
    EXPECT_EQ(e.cause(), common::CancelCause::kStall);
    EXPECT_EQ(e.phase(), "map-combine");
    EXPECT_NE(e.worker().find("mapper-"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stall"), std::string::npos);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound (TSan): but far below the 60 s injected stall.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(Watchdog, DeadlineVerdictAbortsRun) {
  const ModCountApp app;
  const auto input = make_numbers(40000, 12);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.fault_spec = "stall_emit=100,stall_ms=60000";
  cfg.deadline_ms = 200;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto start = std::chrono::steady_clock::now();
  try {
    rt.run(app, input);
    FAIL() << "expected an AbortError";
  } catch (const common::AbortError& e) {
    EXPECT_EQ(e.cause(), common::CancelCause::kDeadline);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

TEST(Watchdog, MappersBlockedBehindASlowCombinerKeepBeating) {
  // Every record the combiner takes costs at least 20 us, so the mappers
  // spend most of the run blocked on full rings, far longer in total than
  // the stall bound. A blocked mapper still beats after every bounded
  // wait, so a live pipeline must not trip the watchdog.
  const SlowCombineApp app;
  const auto input = make_numbers(6000, 16);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.adapt_mode = AdaptMode::kOff;
  cfg.queue_capacity = 8;
  cfg.batch_size = 4;
  cfg.stall_timeout_ms = 100;
  core::Runtime<SlowCombineApp> rt(topo::host(), cfg);
  const auto start = std::chrono::steady_clock::now();
  const auto result = rt.run(app, input);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_GT(result.backoff_sleeps, 0u);
  EXPECT_GT(elapsed, 3 * std::chrono::milliseconds(cfg.stall_timeout_ms));
}

TEST(Watchdog, CleanRunUnaffectedByWatchdog) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 13);
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.deadline_ms = 120000;  // plenty
  cfg.stall_timeout_ms = 60000;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  EXPECT_EQ(result.task_retries, 0u);
}

// ---------- configuration validation -----------------------------------------

TEST(Config, PipelinedRejectsSinglePoolShape) {
  // The zero-combiner crash class: driving the pipelined strategy from a
  // single-pool PoolSet must be a structured ConfigError, not a crash in
  // collect().
  const ModCountApp app;
  const auto input = make_numbers(100, 14);
  engine::PoolSet pools(topo::host(), 2, PinPolicy::kOsDefault);
  engine::PhaseDriver driver(pools);
  engine::PipelinedSpsc<ModCountApp> strategy;
  EXPECT_THROW(driver.run(strategy, app, input), ConfigError);
}

TEST(Config, ResolvedRejectsCombinerHeavyShape) {
  RuntimeConfig cfg = ramr_config(1, 2);
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

// ---------- the join protocol ------------------------------------------------

TEST(JoinProtocol, CollectRecordsSuppressedSecondError) {
  sched::ThreadPool a(1);
  sched::ThreadPool b(1);
  a.start([](std::size_t) { throw Error("first pool failure"); });
  b.start([](std::size_t) { throw Error("second pool failure"); });
  const engine::JoinOutcome outcome = engine::join_pools_collect(a, b);
  ASSERT_TRUE(outcome.first_error);
  EXPECT_EQ(outcome.suppressed, 1u);
  EXPECT_EQ(outcome.suppressed_message, "second pool failure");
  try {
    std::rethrow_exception(outcome.first_error);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "first pool failure");
  }
}

TEST(JoinProtocol, CleanJoinReportsNothing) {
  sched::ThreadPool a(1);
  sched::ThreadPool b(1);
  a.start([](std::size_t) {});
  b.start([](std::size_t) {});
  const engine::JoinOutcome outcome = engine::join_pools_collect(a, b);
  EXPECT_FALSE(outcome.first_error);
  EXPECT_EQ(outcome.suppressed, 0u);
}

// ---------- pools survive a failed run ---------------------------------------

TEST(Recovery, PoolsReusableAfterInjectedFailure) {
  const ModCountApp app;
  const auto input = make_numbers(10000, 16);
  // A transient plan whose budget empties during run #1: run #2 on the SAME
  // runtime re-parses the plan (fresh Injector) and fails identically — but
  // critically the pools must still join and execute cleanly in between.
  RuntimeConfig cfg = ramr_config(2, 1);
  cfg.fault_spec = "map_task=0,map_transient=1,map_fires=2";
  cfg.max_task_retries = 3;
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  const auto first = rt.run(app, input);
  EXPECT_TRUE(pairs_match(first.pairs, app.reference(input)));
  const auto second = rt.run(app, input);
  EXPECT_TRUE(pairs_match(second.pairs, app.reference(input)));
  EXPECT_EQ(second.task_retries, 2u);  // fresh injector per run()
}

}  // namespace
}  // namespace ramr
