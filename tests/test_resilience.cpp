// Resilience layer of service mode (docs/ARCHITECTURE.md §13): job-level
// retry with backoff, the graceful-degradation ladder, the per-app circuit
// breaker (one half-open trial at a time), overload shedding, the
// job-boundary fault site, and the chaos harness — a concurrent job stream
// under injected map-task faults, emit stalls, and job-boundary faults that
// must end with every job terminal, retried outputs identical to the
// fault-free reference, and zero leaked cores or pool leases. Time bounds
// are generous: this suite runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/suite.hpp"
#include "common/cancellation.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "engine/pool_depot.hpp"
#include "faults/injector.hpp"
#include "mini_apps.hpp"
#include "service/scheduler.hpp"
#include "topology/topology.hpp"

namespace ramr::service {
namespace {

using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;

RuntimeConfig job_config(std::size_t mappers, std::size_t combiners) {
  RuntimeConfig cfg;
  cfg.num_mappers = mappers;
  cfg.num_combiners = combiners;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 256;
  cfg.batch_size = 16;
  return cfg;
}

topo::Topology small_server() {
  return topo::make_server("resil-test", 1, 4, 2);  // 8 logical CPUs
}

// ---------- job-level retry --------------------------------------------------

TEST(Retry, TransientJobFaultsRetriedToSuccess) {
  Scheduler::Options opts;
  opts.max_retries = 3;
  opts.fault_spec = "job_run=0,job_fires=2";  // first two attempts fail
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(10000, 41);
  JobSpec spec;
  spec.name = "retry-me";
  spec.cores = 4;
  spec.config = job_config(2, 1);
  auto [id, future] = sched.submit(spec, app, input);

  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.describe();
  EXPECT_EQ(r.attempts, 3u);  // two faulted attempts + the success
  EXPECT_TRUE(r.error.empty());
  EXPECT_TRUE(r.degraded_steps.empty());  // transient faults do not degrade
  EXPECT_TRUE(pairs_match(future.get().pairs, app.reference(input)));

  const ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.job_faults, 2u);
  EXPECT_EQ(stats.done, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Retry, ExhaustedBudgetFailsWithAttribution) {
  Scheduler::Options opts;
  opts.max_retries = 2;
  opts.fault_spec = "job_run=0,job_fires=100";  // every attempt fails
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(1000, 42);
  JobSpec spec;
  spec.name = "doomed";
  spec.cores = 4;
  spec.config = job_config(2, 1);
  auto [id, future] = sched.submit(spec, app, input);

  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 3u);  // initial attempt + 2 retries
  EXPECT_NE(r.error.find("job boundary"), std::string::npos) << r.error;
  // The typed future surfaces the final attempt's exception.
  EXPECT_THROW(future.get(), TransientError);
  EXPECT_EQ(sched.stats().retries, 2u);
}

TEST(Retry, SpecBudgetOverridesSchedulerDefault) {
  Scheduler::Options opts;
  opts.max_retries = 5;
  opts.fault_spec = "job_run=0,job_fires=100";
  Scheduler sched(small_server(), opts);

  JobSpec spec;
  spec.name = "no-retry";
  spec.max_retries = 0;  // opt this job out of the scheduler's budget
  const JobId id = sched.submit(spec, [](JobContext&) {});
  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(sched.stats().retries, 0u);
}

// ---------- graceful-degradation ladder -------------------------------------

TEST(Degrade, LadderStepsFusedThenCoresThenRetry) {
  Scheduler sched(small_server());

  const ModCountApp app;
  const auto input = make_numbers(20000, 43);
  std::atomic<std::size_t> calls{0};

  JobSpec spec;
  spec.name = "ladder";
  spec.cores = 6;
  spec.config = job_config(2, 1);
  spec.max_retries = 5;
  // Three plan failures walk the whole ladder; the fourth attempt runs for
  // real on the degraded plan: fused strategy, halved core ask.
  const JobId id = sched.submit(spec, [&](JobContext& ctx) {
    const std::size_t call = calls.fetch_add(1);
    if (call < 3) throw ConfigError("synthetic plan failure");
    EXPECT_EQ(ctx.lease().size(), 3u);
    const auto result = ctx.run(app, input);
    EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
  });

  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.describe();
  EXPECT_EQ(r.attempts, 4u);
  ASSERT_EQ(r.degraded_steps.size(), 3u);
  EXPECT_EQ(r.degraded_steps[0], "strategy=fused");
  EXPECT_EQ(r.degraded_steps[1], "cores=6->3");
  EXPECT_EQ(r.degraded_steps[2], "retry");
  EXPECT_EQ(r.plan.source, "degraded");
  ASSERT_EQ(r.cores.size(), 3u);
  EXPECT_EQ(sched.stats().degraded, 3u);
}

TEST(Degrade, TraitAppLadderSkipsTheStrategyRung) {
  // HG already runs fused on a single pool: a failed attempt goes straight
  // to the core step, then to a plain retry.
  Scheduler sched(small_server());
  using App = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput input{apps::make_pixels(20000, 43), 2048};
  std::atomic<std::size_t> calls{0};

  JobSpec spec;
  spec.name = "trait-ladder";
  spec.cores = 6;
  spec.config.pin_policy = PinPolicy::kOsDefault;
  spec.max_retries = 5;
  const JobId id = sched.submit(spec, [&](JobContext& ctx) {
    const std::size_t call = calls.fetch_add(1);
    const auto result = ctx.run(App{}, input);
    EXPECT_EQ(result.plan.strategy, "fused");
    if (call < 2) throw ConfigError("synthetic plan failure");
    EXPECT_EQ(ctx.lease().size(), 3u);
    const std::map<std::uint64_t, std::uint64_t> got(result.pairs.begin(),
                                                     result.pairs.end());
    EXPECT_EQ(got, apps::histogram_reference(input));
  });

  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kDone) << r.describe();
  EXPECT_EQ(r.attempts, 3u);
  ASSERT_EQ(r.degraded_steps.size(), 2u);
  EXPECT_EQ(r.degraded_steps[0], "cores=6->3");
  EXPECT_EQ(r.degraded_steps[1], "retry");
  EXPECT_EQ(r.plan.source, "degraded");
  EXPECT_EQ(sched.stats().degraded, 2u);
}

// ---------- circuit breaker --------------------------------------------------

TEST(Breaker, OpensAfterKConsecutiveFailuresAndFastFails) {
  Scheduler::Options opts;
  opts.breaker_k = 2;
  opts.breaker_cooldown_ms = 60'000;  // never half-opens during this test
  Scheduler sched(small_server(), opts);

  JobSpec spec;
  spec.name = "flaky";
  auto failing = [](JobContext&) { throw Error("app bug"); };
  EXPECT_EQ(sched.wait(sched.submit(spec, failing)).status,
            JobStatus::kFailed);
  EXPECT_EQ(sched.wait(sched.submit(spec, failing)).status,
            JobStatus::kFailed);

  // Open: submissions of this app fast-fail without queueing or running.
  const JobId rejected = sched.submit(spec, [](JobContext&) {});
  const JobReport r = sched.report(rejected);
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.error.find("circuit breaker open"), std::string::npos)
      << r.error;

  // Other apps are unaffected.
  spec.name = "healthy";
  EXPECT_EQ(sched.wait(sched.submit(spec, [](JobContext&) {})).status,
            JobStatus::kDone);

  const ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_rejects, 1u);
}

TEST(Breaker, HalfOpenTrialClosesOnSuccessReopensOnFailure) {
  Scheduler::Options opts;
  opts.breaker_k = 2;
  opts.breaker_cooldown_ms = 50;
  Scheduler sched(small_server(), opts);

  JobSpec spec;
  spec.name = "flaky";
  auto failing = [](JobContext&) { throw Error("app bug"); };
  auto ok = [](JobContext&) {};

  sched.wait(sched.submit(spec, failing));
  sched.wait(sched.submit(spec, failing));
  EXPECT_EQ(sched.report(sched.submit(spec, ok)).status,
            JobStatus::kRejected);

  // Cooldown elapses: the next submission is the half-open trial; its
  // success closes the breaker for good.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(sched.wait(sched.submit(spec, ok)).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(sched.submit(spec, ok)).status, JobStatus::kDone);

  // Trip again; a failing half-open trial reopens immediately.
  sched.wait(sched.submit(spec, failing));
  sched.wait(sched.submit(spec, failing));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(sched.wait(sched.submit(spec, failing)).status,
            JobStatus::kFailed);
  EXPECT_EQ(sched.report(sched.submit(spec, ok)).status,
            JobStatus::kRejected);
  EXPECT_GE(sched.stats().breaker_trips, 3u);
}

// A half-open breaker admits one trial: further submissions of the app are
// rejected while it runs, and a trial that ends without a verdict frees
// the slot for the next submission.
TEST(Breaker, HalfOpenAdmitsOneTrialAtATime) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  opts.breaker_k = 2;
  opts.breaker_cooldown_ms = 50;
  Scheduler sched(small_server(), opts);

  JobSpec spec;
  spec.name = "flaky";
  auto failing = [](JobContext&) { throw Error("app bug"); };
  auto ok = [](JobContext&) {};
  const auto trip = [&] {
    sched.wait(sched.submit(spec, failing));
    sched.wait(sched.submit(spec, failing));
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };

  trip();
  std::latch release(1);
  const JobId trial = sched.submit(spec, [&](JobContext&) { release.wait(); });
  const JobReport second = sched.report(sched.submit(spec, ok));
  EXPECT_EQ(second.status, JobStatus::kRejected);
  EXPECT_NE(second.error.find("circuit breaker"), std::string::npos)
      << second.error;
  release.count_down();
  EXPECT_EQ(sched.wait(trial).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(sched.submit(spec, ok)).status, JobStatus::kDone);

  // A trial cancelled while queued (a holder of another app keeps the one
  // slot busy) frees the slot.
  trip();
  std::latch hold(1);
  JobSpec holder;
  holder.name = "holder";
  const JobId h = sched.submit(holder, [&](JobContext&) { hold.wait(); });
  const JobId queued = sched.submit(spec, ok);
  EXPECT_EQ(sched.report(queued).status, JobStatus::kQueued);
  EXPECT_TRUE(sched.cancel(queued));
  const JobId next = sched.submit(spec, ok);
  EXPECT_EQ(sched.report(next).status, JobStatus::kQueued);
  hold.count_down();
  EXPECT_EQ(sched.wait(h).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(next).status, JobStatus::kDone);
}

// ---------- overload shedding ------------------------------------------------

TEST(Shed, LowestPriorityNewestFirstAboveWatermark) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  opts.queue_depth = 16;
  opts.shed_watermark = 4;
  Scheduler sched(small_server(), opts);

  // A holder occupies the single slot so later submissions provably queue.
  std::latch release(1);
  std::atomic<bool> running{false};
  JobSpec holder;
  holder.name = "holder";
  holder.config = job_config(1, 1);
  const JobId h = sched.submit(holder, [&](JobContext&) {
    running.store(true);
    release.wait();
  });
  while (!running.load()) std::this_thread::yield();

  JobSpec spec;
  spec.config = job_config(1, 1);
  const int prios[5] = {0, 0, 10, 0, 0};
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    spec.name = {'q', static_cast<char>('0' + i)};
    spec.priority = prios[i];
    ids.push_back(sched.submit(spec, [](JobContext&) {}));
  }

  // The fifth submission pushed the queued cost to 5 > 4: shedding drains
  // to watermark/2 = 2, evicting lowest priority first, ties newest-first.
  EXPECT_EQ(sched.report(ids[4]).status, JobStatus::kShed);
  EXPECT_EQ(sched.report(ids[3]).status, JobStatus::kShed);
  EXPECT_EQ(sched.report(ids[1]).status, JobStatus::kShed);
  EXPECT_EQ(sched.report(ids[0]).status, JobStatus::kQueued);
  EXPECT_EQ(sched.report(ids[2]).status, JobStatus::kQueued);
  EXPECT_NE(sched.report(ids[4]).error.find("watermark"), std::string::npos);

  release.count_down();
  EXPECT_EQ(sched.wait(h).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(ids[0]).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(ids[2]).status, JobStatus::kDone);
  EXPECT_EQ(sched.stats().shed, 3u);
}

// ---------- client-owned cancellation token (satellite regression) ----------

TEST(ClientToken, PreTrippedTokenCancelsWithoutConsumingLease) {
  Scheduler sched(small_server());
  common::CancellationToken token;
  token.cancel(common::CancelCause::kExternal, {}, {}, "client gave up");

  std::atomic<bool> ran{false};
  JobSpec spec;
  spec.name = "stillborn";
  spec.cancel = &token;
  const JobId id = sched.submit(spec, [&](JobContext&) { ran.store(true); });

  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kCancelled);  // not kFailed
  EXPECT_NE(r.error.find("before admission"), std::string::npos) << r.error;
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(r.cores.empty());
  EXPECT_EQ(sched.cores().available(), sched.cores().total());
  EXPECT_EQ(sched.depot().stats().built, 0u);

  // The typed submit surfaces the same outcome through its future.
  const ModCountApp app;
  const auto input = make_numbers(100, 45);
  auto [typed_id, future] = sched.submit(spec, app, input);
  EXPECT_EQ(sched.wait(typed_id).status, JobStatus::kCancelled);
  EXPECT_THROW(future.get(), Error);
  EXPECT_EQ(sched.stats().cancelled, 2u);
}

// ---------- env knobs --------------------------------------------------------

TEST(Knobs, OptionsFromEnvPicksUpResilienceKnobs) {
  env::ScopedOverride retries("RAMR_SERVICE_RETRIES", "2");
  env::ScopedOverride breaker("RAMR_BREAKER_K", "4");
  env::ScopedOverride shed("RAMR_SHED_WATERMARK", "10");
  env::ScopedOverride faults("RAMR_FAULTS", "job_p=0.1,job_fires=3,seed=5");

  const Scheduler::Options o = Scheduler::Options::from_env();
  EXPECT_EQ(o.max_retries, 2u);
  EXPECT_EQ(o.breaker_k, 4u);
  EXPECT_EQ(o.shed_watermark, 10u);
  EXPECT_EQ(o.fault_spec, "job_p=0.1,job_fires=3,seed=5");

  // knobs() maps the options back for the flight recorder's
  // effective_config, keeping the env as their source.
  const auto setting = [](const Scheduler::Options& opts,
                          const std::string& env) {
    for (const KnobSetting& k : knob_settings(opts.knobs())) {
      if (env == k.env) return k;
    }
    return KnobSetting{"", "", ""};
  };
  EXPECT_EQ(setting(o, "RAMR_SERVICE_RETRIES").value, "2");
  EXPECT_EQ(setting(o, "RAMR_SERVICE_RETRIES").source, "env");
  Scheduler::Options coded;
  coded.queue_depth = 4;
  EXPECT_EQ(setting(coded, "RAMR_SERVICE_QUEUE").value, "4");
  EXPECT_EQ(setting(coded, "RAMR_SERVICE_QUEUE").source, "config");
}

// ---------- the chaos harness ------------------------------------------------

// A concurrent stream of 12 jobs under three fault classes at once:
// transient map-task faults (recovered by task-level retry inside the run),
// real emit stalls mid-run, and deterministic job-boundary faults from the
// scheduler's own injector (recovered by job-level retry). Every job must
// end terminal — here, successfully — with output identical to the
// fault-free reference, and the scheduler must hold zero cores and zero
// depot leases once the stream drains.
TEST(Chaos, ConcurrentJobStreamUnderFaultsEndsTerminalAndCorrect) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 2;
  opts.queue_depth = 32;
  opts.max_retries = 6;
  // The first four run attempts (across the whole stream) fail at the job
  // boundary; retries draw fresh ordinals and succeed.
  opts.fault_spec = "job_run=0,job_fires=4";
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  constexpr std::size_t kJobs = 12;
  std::vector<std::vector<std::uint64_t>> inputs;
  std::vector<std::map<std::uint64_t, std::uint64_t>> refs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    inputs.push_back(make_numbers(8000, 100 + i));
    refs.push_back(app.reference(inputs.back()));
  }

  std::vector<JobId> ids;
  std::vector<std::shared_future<mr::result_of<ModCountApp>>> futures;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.name = "chaos-" + std::to_string(i);
    spec.cores = 4;
    spec.config = job_config(2, 1);
    switch (i % 3) {
      case 0:  // transient map-task faults, absorbed by task-level retry
        spec.config.fault_spec = "map_task=5,map_transient=1,map_fires=2";
        spec.config.max_task_retries = 3;
        break;
      case 1:  // a real (bounded) emit stall mid-run
        spec.config.fault_spec = "stall_emit=40,stall_ms=100";
        break;
      default:  // clean, except for job-boundary faults
        break;
    }
    auto [id, future] = sched.submit(spec, app, inputs[i]);
    ids.push_back(id);
    futures.push_back(std::move(future));
  }

  std::size_t total_attempts = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const JobReport r = sched.wait(ids[i]);
    ASSERT_TRUE(terminal(r.status)) << r.describe();
    EXPECT_EQ(r.status, JobStatus::kDone) << r.describe();
    total_attempts += r.attempts;
    // A retried job's output is identical to the fault-free reference.
    EXPECT_TRUE(pairs_match(futures[i].get().pairs, refs[i]))
        << "job " << i;
  }

  const ServiceStats stats = sched.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.done, kJobs);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.job_faults, 4u);
  EXPECT_EQ(stats.retries, 4u);
  EXPECT_EQ(total_attempts, kJobs + 4);
  EXPECT_NE(stats.summary().find("retries=4"), std::string::npos);
  const std::string json = sched.stats_json();
  EXPECT_NE(json.find("ramr-service-stats-v1"), std::string::npos) << json;
  EXPECT_NE(json.find("job_faults"), std::string::npos) << json;

  // Zero leaked cores or pool leases once the stream drains...
  EXPECT_EQ(sched.cores().available(), sched.cores().total());
  const engine::PoolDepot::Stats depot = sched.depot().stats();
  EXPECT_EQ(depot.leased, 0u);
  EXPECT_LE(depot.idle, depot.built);  // the shelf stays bounded

  // ...and still after shutdown.
  sched.shutdown();
  EXPECT_EQ(sched.cores().available(), sched.cores().total());
  EXPECT_EQ(sched.depot().stats().leased, 0u);
}

}  // namespace
}  // namespace ramr::service
