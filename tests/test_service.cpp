// Tests for service mode: core-lease disjointness and exhaustion, scheduler
// admission control, per-job cancellation isolation, warm-pool reuse parity
// against the one-shot runtime, and the PoolDepot recycling rules the
// scheduler (and service-mode core::Runtime) relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "core/runtime.hpp"
#include "engine/pool_depot.hpp"
#include "mini_apps.hpp"
#include "service/scheduler.hpp"
#include "topology/topology.hpp"

namespace ramr::service {
namespace {

using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;

// Small worker counts and OS-default pinning: the leased sub-topologies are
// modelled shapes whose OS ids need not exist on the machine running the
// tests, so pins must be advisory.
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
  return topo::make_server("svc-test", 1, 4, 2);  // 8 logical CPUs
}

TEST(CoreLeaseRegistry, GrantsAreDisjointAndExhaustible) {
  const topo::Topology topo = small_server();
  CoreLeaseRegistry reg(topo);
  EXPECT_EQ(reg.total(), 8u);
  EXPECT_EQ(reg.available(), 8u);

  auto a = reg.try_acquire(3);
  auto b = reg.try_acquire(3);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(b->size(), 3u);
  std::set<std::size_t> seen(a->cpu_os_ids.begin(), a->cpu_os_ids.end());
  for (std::size_t id : b->cpu_os_ids) {
    EXPECT_TRUE(seen.insert(id).second) << "core " << id << " double-leased";
  }
  EXPECT_EQ(reg.available(), 2u);

  // All-or-nothing: 3 cores wanted, only 2 free.
  EXPECT_FALSE(reg.try_acquire(3).has_value());
  EXPECT_EQ(reg.available(), 2u);

  reg.release(*a);
  EXPECT_EQ(reg.available(), 5u);
  reg.release(*a);  // idempotent
  EXPECT_EQ(reg.available(), 5u);
  EXPECT_TRUE(reg.try_acquire(5).has_value());

  // Impossible and empty requests.
  EXPECT_FALSE(reg.try_acquire(0).has_value());
  EXPECT_FALSE(CoreLeaseRegistry(topo).try_acquire(9).has_value());
}

TEST(CoreLeaseRegistry, GrantsFollowProximityOrder) {
  const topo::Topology topo = small_server();
  CoreLeaseRegistry reg(topo);
  const std::vector<std::size_t> order = topo.proximity_order();
  auto lease = reg.try_acquire(4);
  ASSERT_TRUE(lease.has_value());
  // First free cores in proximity order: the lease occupies physically
  // adjacent resources (SMT siblings first).
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lease->cpu_os_ids[i], order[i]);
  }
}

TEST(Scheduler, ConcurrentJobsGetDisjointCoreSets) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 2;
  Scheduler sched(small_server(), opts);

  // Both jobs hold a latch open until each has observed the other running,
  // proving they were truly concurrent on their disjoint sets.
  std::latch both_running(2);
  auto body = [&](JobContext& ctx) {
    both_running.arrive_and_wait();
    EXPECT_FALSE(ctx.lease().empty());
  };
  JobSpec spec;
  spec.cores = 4;
  spec.config = job_config(2, 1);
  spec.name = "a";
  const JobId a = sched.submit(spec, body);
  spec.name = "b";
  const JobId b = sched.submit(spec, body);

  const JobReport ra = sched.wait(a);
  const JobReport rb = sched.wait(b);
  EXPECT_EQ(ra.status, JobStatus::kDone) << ra.error;
  EXPECT_EQ(rb.status, JobStatus::kDone) << rb.error;
  ASSERT_EQ(ra.cores.size(), 4u);
  ASSERT_EQ(rb.cores.size(), 4u);
  std::set<std::size_t> seen(ra.cores.begin(), ra.cores.end());
  for (std::size_t id : rb.cores) {
    EXPECT_TRUE(seen.insert(id).second) << "core " << id << " shared";
  }
}

TEST(Scheduler, AdmissionRejectsWhenQueueFull) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  opts.queue_depth = 1;
  Scheduler sched(small_server(), opts);

  std::latch release(1);
  std::atomic<bool> running{false};
  JobSpec spec;
  spec.config = job_config(1, 1);
  spec.name = "holder";
  const JobId a = sched.submit(spec, [&](JobContext&) {
    running.store(true);
    release.wait();
  });
  // Wait until A occupies the single slot, so B is definitely *queued*
  // (not dispatched) when C arrives.
  while (!running.load()) std::this_thread::yield();

  spec.name = "waiter";
  const JobId b = sched.submit(spec, [](JobContext&) {});
  spec.name = "overflow";
  const JobId c = sched.submit(spec, [](JobContext&) {});

  const JobReport rc = sched.report(c);
  EXPECT_EQ(rc.status, JobStatus::kRejected);
  EXPECT_NE(rc.error.find("queue full"), std::string::npos) << rc.error;

  release.count_down();
  EXPECT_EQ(sched.wait(a).status, JobStatus::kDone);
  EXPECT_EQ(sched.wait(b).status, JobStatus::kDone);
}

TEST(Scheduler, RejectsImpossibleCoreRequest) {
  Scheduler sched(small_server());
  JobSpec spec;
  spec.name = "too-big";
  spec.cores = 9;  // topology has 8
  const JobId id = sched.submit(spec, [](JobContext&) {});
  const JobReport r = sched.wait(id);
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.error.find("topology has 8"), std::string::npos) << r.error;
}

TEST(Scheduler, CancelDoesNotTearDownNeighbors) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 2;
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(20000, 7);

  // Victim: spins until its token trips (a cooperative long-running body).
  std::atomic<bool> victim_running{false};
  JobSpec vspec;
  vspec.name = "victim";
  vspec.cores = 4;
  vspec.config = job_config(2, 1);
  const JobId victim = sched.submit(vspec, [&](JobContext& ctx) {
    victim_running.store(true);
    while (!ctx.cancel_token().cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!victim_running.load()) std::this_thread::yield();

  // Neighbor: real MapReduce work on the other core set, repeatedly.
  JobSpec nspec;
  nspec.name = "neighbor";
  nspec.cores = 4;
  nspec.config = job_config(2, 1);
  const JobId neighbor = sched.submit(nspec, [&](JobContext& ctx) {
    for (int i = 0; i < 3; ++i) {
      auto result = ctx.run(app, input);
      ASSERT_TRUE(pairs_match(result.pairs, app.reference(input)));
    }
  });

  EXPECT_TRUE(sched.cancel(victim));
  const JobReport rv = sched.wait(victim);
  const JobReport rn = sched.wait(neighbor);
  EXPECT_EQ(rv.status, JobStatus::kCancelled);
  EXPECT_EQ(rn.status, JobStatus::kDone) << rn.error;

  // Cancel of a terminal job is a no-op.
  EXPECT_FALSE(sched.cancel(victim));
  EXPECT_FALSE(sched.cancel(JobId{9999}));
}

TEST(Scheduler, CancelAbortsMidRunWithoutNeighborDamage) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 2;
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(50000, 11);

  // Victim loops real runs forever; cancel lands mid-run and the watchdog
  // forwards it into the engine as an AbortError.
  std::atomic<bool> victim_running{false};
  JobSpec vspec;
  vspec.name = "victim";
  vspec.cores = 4;
  vspec.config = job_config(2, 1);
  const JobId victim = sched.submit(vspec, [&](JobContext& ctx) {
    victim_running.store(true);
    for (;;) ctx.run(app, input);
  });
  while (!victim_running.load()) std::this_thread::yield();
  EXPECT_TRUE(sched.cancel(victim));
  const JobReport rv = sched.wait(victim);
  EXPECT_EQ(rv.status, JobStatus::kCancelled);

  // The machine still serves fresh jobs correctly afterwards.
  JobSpec nspec;
  nspec.name = "after";
  nspec.cores = 4;
  nspec.config = job_config(2, 1);
  auto [id, future] = sched.submit(nspec, app, input);
  const JobReport rn = sched.wait(id);
  ASSERT_EQ(rn.status, JobStatus::kDone) << rn.error;
  EXPECT_TRUE(pairs_match(future.get().pairs, app.reference(input)));
}

TEST(Scheduler, WarmPoolParityWithRunOnce) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(30000, 3);
  const auto reference = app.reference(input);

  JobSpec spec;
  spec.cores = 4;
  spec.config = job_config(2, 1);

  // A stream of identical jobs: the first builds pools cold, the rest are
  // served warm from the depot — with identical results throughout.
  for (int i = 0; i < 3; ++i) {
    spec.name = "stream-" + std::to_string(i);
    auto [id, future] = sched.submit(spec, app, input);
    const JobReport r = sched.wait(id);
    ASSERT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.warm_pools, i > 0) << "iteration " << i;
    EXPECT_TRUE(pairs_match(future.get().pairs, reference));
  }
  const engine::PoolDepot::Stats stats = sched.depot().stats();
  EXPECT_EQ(stats.built, 1u);
  EXPECT_EQ(stats.reused, 2u);

  // Parity with the one-shot path on the same app and input.
  const auto oneshot = core::run_once(app, input, job_config(2, 1));
  EXPECT_TRUE(pairs_match(oneshot.pairs, reference));
}

// HG combines in its map: the job runs fused on one single-pool set over
// its leased cores (plan source "trait"); no rings, no dual set.
TEST(Scheduler, TraitAppRunsFusedOnTheLeasedCores) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  Scheduler sched(small_server(), opts);
  using App = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput input{apps::make_pixels(100000, 11), 2048};

  JobSpec spec;
  spec.name = "hg";
  spec.cores = 4;
  spec.config.pin_policy = PinPolicy::kOsDefault;
  auto [id, future] = sched.submit(spec, App{}, input);
  const JobReport r = sched.wait(id);
  ASSERT_EQ(r.status, JobStatus::kDone) << r.error;
  EXPECT_NE(r.plan.summary().find("plan=fused src=trait"), std::string::npos)
      << r.plan.summary();
  const auto result = future.get();
  EXPECT_EQ(result.queue_pushes, 0u);
  const std::map<std::uint64_t, std::uint64_t> got(result.pairs.begin(),
                                                   result.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(input));
  EXPECT_EQ(sched.depot().stats().built, 1u);
}

TEST(Scheduler, ShutdownCancelsQueuedJobs) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  Scheduler sched(small_server(), opts);

  std::latch release(1);
  std::atomic<bool> running{false};
  JobSpec spec;
  spec.config = job_config(1, 1);
  spec.name = "holder";
  const JobId a = sched.submit(spec, [&](JobContext& ctx) {
    running.store(true);
    release.count_down();  // let shutdown proceed...
    while (!ctx.cancel_token().cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  spec.name = "queued";
  const JobId b = sched.submit(spec, [](JobContext&) {});

  release.wait();
  sched.shutdown();
  EXPECT_EQ(sched.wait(a).status, JobStatus::kCancelled);
  const JobReport rb = sched.wait(b);
  EXPECT_EQ(rb.status, JobStatus::kCancelled);
  EXPECT_NE(rb.error.find("shutdown"), std::string::npos) << rb.error;

  // Submissions after shutdown are rejected, not queued forever.
  spec.name = "late";
  EXPECT_EQ(sched.wait(sched.submit(spec, [](JobContext&) {})).status,
            JobStatus::kRejected);
}

// A terminal job's body is released: nothing it captured outlives the job
// (a typed submit's promise holds the whole result), while a typed
// submit's future still delivers that result.
TEST(Scheduler, TerminalJobReleasesItsBody) {
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 1;
  Scheduler sched(small_server(), opts);

  const auto sentinel = std::make_shared<int>(0);
  JobSpec spec;
  spec.name = "sentinel";
  spec.config = job_config(1, 1);
  const JobId ran = sched.submit(spec, [sentinel](JobContext&) {});
  EXPECT_EQ(sched.wait(ran).status, JobStatus::kDone);
  EXPECT_EQ(sentinel.use_count(), 1);

  // A body that never runs goes too.
  spec.cores = 99;
  const JobId rejected = sched.submit(spec, [sentinel](JobContext&) {});
  EXPECT_EQ(sched.wait(rejected).status, JobStatus::kRejected);
  EXPECT_EQ(sentinel.use_count(), 1);

  spec.cores = 0;
  const ModCountApp app;
  const auto input = make_numbers(5000, 8);
  auto [id, future] = sched.submit(spec, app, input);
  EXPECT_EQ(sched.wait(id).status, JobStatus::kDone);
  EXPECT_TRUE(pairs_match(future.get().pairs, app.reference(input)));
}

TEST(Scheduler, NoLeaseLeaksAfterShutdown) {
  // Invariant check for every lifecycle path at once: after the scheduler
  // winds down, every core must be back in the registry and the depot must
  // hold zero leased pool sets with a bounded warm shelf.
  Scheduler::Options opts;
  opts.max_concurrent_jobs = 2;
  Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(10000, 17);

  JobSpec spec;
  spec.cores = 4;
  spec.config = job_config(2, 1);
  spec.name = "clean";
  sched.wait(sched.submit(spec, app, input).first);

  // A mid-run cancellation (the lease must come back through the abort
  // path, not just the happy path).
  std::atomic<bool> running{false};
  spec.name = "victim";
  const JobId victim = sched.submit(spec, [&](JobContext& ctx) {
    running.store(true);
    for (;;) ctx.run(app, input);
  });
  while (!running.load()) std::this_thread::yield();
  EXPECT_TRUE(sched.cancel(victim));
  EXPECT_EQ(sched.wait(victim).status, JobStatus::kCancelled);

  // An admission rejection (never held a lease at all).
  spec.name = "too-big";
  spec.cores = 9;
  EXPECT_EQ(sched.wait(sched.submit(spec, [](JobContext&) {})).status,
            JobStatus::kRejected);

  sched.shutdown();
  EXPECT_EQ(sched.cores().available(), sched.cores().total());
  const engine::PoolDepot::Stats stats = sched.depot().stats();
  EXPECT_EQ(stats.leased, 0u);
  EXPECT_LE(stats.idle, stats.built);  // the warm shelf stays bounded
}

TEST(PoolDepot, RecyclesCompatibleSetsAndRebindsKnobs) {
  const topo::Topology topo = small_server();
  engine::PoolDepot depot;
  RuntimeConfig cfg = job_config(2, 1);

  const engine::PoolSet* first = nullptr;
  {
    auto lease = depot.acquire(topo, cfg);
    EXPECT_FALSE(lease.warm());
    first = &lease.pools();
  }
  {
    // Same shape: served warm, same underlying set.
    auto lease = depot.acquire(topo, cfg);
    EXPECT_TRUE(lease.warm());
    EXPECT_EQ(&lease.pools(), first);
  }
  {
    // Same shape, different per-run knob: warm, rebound to the new knobs.
    RuntimeConfig tweaked = cfg;
    tweaked.batch_size = 64;
    auto lease = depot.acquire(topo, tweaked);
    EXPECT_TRUE(lease.warm());
    EXPECT_EQ(&lease.pools(), first);
    EXPECT_EQ(lease.pools().config().batch_size, 64u);
  }
  {
    // Different worker counts: a different shape, built cold.
    auto lease = depot.acquire(topo, job_config(3, 2));
    EXPECT_FALSE(lease.warm());
    EXPECT_NE(&lease.pools(), first);
  }
  const engine::PoolDepot::Stats stats = depot.stats();
  EXPECT_EQ(stats.built, 2u);
  EXPECT_EQ(stats.reused, 2u);
  EXPECT_EQ(stats.leased, 0u);
  EXPECT_EQ(stats.idle, 2u);
  depot.clear();
  EXPECT_EQ(depot.stats().idle, 0u);
}

TEST(ServiceMode, RuntimeReusesProcessPools) {
  engine::PoolDepot::process().clear();
  env::ScopedOverride service("RAMR_SERVICE", "1");

  const ModCountApp app;
  // Below the probe budget: the static path keeps its lease, which
  // pools_warm() reports.
  const auto input = make_numbers(1000, 5);
  const auto reference = app.reference(input);
  // from_env picks up RAMR_SERVICE=1 the way a real client would.
  const RuntimeConfig cfg = RuntimeConfig::from_env(job_config(2, 1));
  ASSERT_TRUE(cfg.service_mode);

  {
    core::Runtime<ModCountApp> rt(topo::host(), cfg);
    EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, reference));
    EXPECT_FALSE(rt.pools_warm());
  }
  {
    // A second Runtime instance inherits the warm process-wide pool set.
    core::Runtime<ModCountApp> rt(topo::host(), cfg);
    EXPECT_TRUE(pairs_match(rt.run(app, input).pairs, reference));
    EXPECT_TRUE(rt.pools_warm());
  }
  EXPECT_GE(engine::PoolDepot::process().stats().reused, 1u);
  engine::PoolDepot::process().clear();
}

TEST(ServiceMode, AdaptiveRuntimeConstructsPoolsLazily) {
  // The Runtime ctor builds (and pins) no pool set: each run leases what
  // its plan uses. The default config decides a big input through the
  // adaptive controller, which leases per run from the depot; only the
  // static path keeps a lease.
  const RuntimeConfig cfg = job_config(2, 1);
  ASSERT_EQ(cfg.adapt_mode, AdaptMode::kProbe);
  core::Runtime<ModCountApp> rt(topo::host(), cfg);
  EXPECT_FALSE(rt.pools_ready());

  const ModCountApp app;
  const auto big = make_numbers(10000, 9);
  ASSERT_TRUE(adapt::probe_affordable(rt.config(), app.num_splits(big)));
  EXPECT_TRUE(pairs_match(rt.run(app, big).pairs, app.reference(big)));
  EXPECT_FALSE(rt.pools_ready());

  const auto small = make_numbers(1000, 9);
  ASSERT_FALSE(adapt::probe_affordable(rt.config(), app.num_splits(small)));
  EXPECT_TRUE(pairs_match(rt.run(app, small).pairs, app.reference(small)));
  EXPECT_TRUE(rt.pools_ready());
}

}  // namespace
}  // namespace ramr::service
