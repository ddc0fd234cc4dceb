// Service-mode amortization: a stream of identical MapReduce jobs executed
// (a) cold — a fresh core::Runtime per job, paying thread spawn + pinning
// every time — and (b) through a persistent service::Scheduler whose
// PoolDepot serves every job after the first from a warm pool set.
//
// Wall-clock numbers are host-dependent (this is a native bench, like
// bench_native_runtime); the pool-construction accounting at the end is
// deterministic: a stream of N same-shape jobs must build exactly 1 pool
// set and reuse it N-1 times.
#include <iostream>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/runtime.hpp"
#include "service/scheduler.hpp"
#include "stats/runstats.hpp"
#include "synth/synth_app.hpp"
#include "topology/topology.hpp"

using namespace ramr;

namespace {

RuntimeConfig stream_config() {
  RuntimeConfig cfg;
  cfg.mapper_combiner_ratio = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;  // host may be tiny
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "service_amortization");

  const std::size_t jobs = env::get_uint("RAMR_BENCH_JOBS", 8);
  const std::size_t scale = env::get_uint("RAMR_BENCH_SCALE", 4096);
  const topo::Topology topo = topo::host();

  synth::SynthApp app;
  synth::SynthParams input;
  input.elements = std::max<std::size_t>(20'000, 80'000'000 / scale);
  input.keys = 64;
  app.container_keys = input.keys;

  bench::banner("Cold-start vs service-mode job stream",
                "service extension; N=" + std::to_string(jobs) +
                    " identical jobs on " + topo.name());

  // Cold: every job constructs its own Runtime (and pool set) from scratch.
  stats::RunStats cold_tail;
  double cold_first = 0.0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const auto t0 = now();
    core::Runtime<synth::SynthApp> rt(topo, stream_config());
    (void)rt.run(app, input);
    const double s = seconds_between(t0, now());
    if (i == 0) {
      cold_first = s;
    } else {
      cold_tail.add(s);
    }
  }

  // Service: one scheduler; jobs lease warm pool sets from its depot.
  service::Scheduler sched(topo);
  stats::RunStats warm_tail;  // iterations 1.. (steady state)
  double warm_first = 0.0;
  std::size_t warm_hits = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    service::JobSpec job;
    job.name = "stream-" + std::to_string(i);
    job.config = stream_config();
    const auto t0 = now();
    auto [id, future] = sched.submit(job, app, input);
    const service::JobReport report = sched.wait(id);
    const double s = seconds_between(t0, now());
    if (report.status != service::JobStatus::kDone) {
      std::cerr << "job failed: " << report.describe() << '\n';
      return 1;
    }
    (void)future.get();
    if (report.warm_pools) ++warm_hits;
    if (i == 0) {
      warm_first = s;
    } else {
      warm_tail.add(s);
    }
  }

  stats::Table table({"mode", "first_ms", "steady_ms", "speedup"});
  const double cold_steady = jobs > 1 ? cold_tail.mean() : cold_first;
  const double warm_steady = jobs > 1 ? warm_tail.mean() : warm_first;
  table.add_row({"cold-runtime", stats::Table::fmt(cold_first * 1e3, 2),
                 stats::Table::fmt(cold_steady * 1e3, 2), "1.00"});
  table.add_row({"service-warm", stats::Table::fmt(warm_first * 1e3, 2),
                 stats::Table::fmt(warm_steady * 1e3, 2),
                 stats::Table::fmt(cold_steady / warm_steady, 2)});
  bench::print(table);

  bench::banner("Pool-construction accounting (deterministic)",
                "service extension; depot reuse across the job stream");
  const auto depot_stats = sched.depot().stats();
  stats::Table counts({"jobs", "pool_sets_built", "warm_reuses",
                       "warm_hit_jobs"});
  counts.add_row({std::to_string(jobs), std::to_string(depot_stats.built),
                  std::to_string(depot_stats.reused),
                  std::to_string(warm_hits)});
  bench::print(counts);
  if (depot_stats.built != 1 || depot_stats.reused != jobs - 1) {
    std::cerr << "unexpected depot accounting: built=" << depot_stats.built
              << " reused=" << depot_stats.reused << '\n';
    return 1;
  }
  return 0;
}
