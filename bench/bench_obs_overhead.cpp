// Observability overhead: the whole plane must cost < 2% (docs/
// OBSERVABILITY.md budget), measured at its two hot surfaces:
//
//   engine row   — one runtime, identical input, RAMR_OBS off vs full:
//                  the telemetry session's metric updates plus the skew
//                  profiler's per-emission tick + per-task clock reads;
//   service row  — a serial job stream through one scheduler, plane off
//                  vs on: adds lifecycle events, per-attempt recorders,
//                  and the sampler thread.
//
// Each cell is the min over repeats (min is robust against load spikes on
// shared CI hosts); the overhead column is (on - off) / off. Wall-clock
// numbers are host-dependent. The 2% budget is only *enforced* (non-zero
// exit) with RAMR_BENCH_ENFORCE=1, so loaded machines can still run the
// bench for the report without flaking; CI inspects the JSON instead.
#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/runtime.hpp"
#include "service/scheduler.hpp"
#include "stats/table.hpp"
#include "synth/synth_app.hpp"
#include "topology/topology.hpp"

using namespace ramr;

namespace {

double min_seconds(const std::function<double()>& run, std::size_t repeats) {
  double best = run();  // first call doubles as warmup for the caller
  for (std::size_t i = 1; i < repeats; ++i) best = std::min(best, run());
  return best;
}

RuntimeConfig base_config(bool obs) {
  RuntimeConfig cfg;
  cfg.mapper_combiner_ratio = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.obs = obs ? ObsLevel::kFull : ObsLevel::kOff;
  return cfg;
}

// One engine run, timed around run() only (pool build excluded).
double engine_run_seconds(bool obs, const synth::SynthApp& app,
                          const synth::SynthParams& input) {
  core::Runtime<synth::SynthApp> runtime(topo::host(), base_config(obs));
  runtime.run(app, input);  // warm the pools and the allocator
  const auto t0 = now();
  runtime.run(app, input);
  return seconds_between(t0, now());
}

// A serial stream of `jobs` identical jobs through one scheduler.
double service_stream_seconds(bool obs, std::size_t jobs,
                              const synth::SynthApp& app,
                              const synth::SynthParams& input) {
  service::Scheduler::Options opts;
  opts.observability = obs;
  opts.metrics_interval_ms = 50;
  opts.postmortem_path = "";  // measure the plane, not the disk
  service::Scheduler sched(topo::host(), opts);

  service::JobSpec warm;
  warm.name = "obs-bench";
  warm.config = base_config(obs);
  {
    auto [id, future] = sched.submit(warm, app, input);
    (void)future;
    sched.wait(id);  // pay the cold pool build outside the timed window
  }
  const auto t0 = now();
  for (std::size_t i = 0; i < jobs; ++i) {
    service::JobSpec spec = warm;
    auto [id, future] = sched.submit(spec, app, input);
    (void)future;
    sched.wait(id);
  }
  return seconds_between(t0, now());
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "obs_overhead");

  const std::size_t scale = env::get_uint("RAMR_BENCH_SCALE", 4096);
  const std::size_t repeats = env::get_uint("RAMR_BENCH_REPEATS", 5);
  const std::size_t jobs = env::get_uint("RAMR_BENCH_JOBS", 8);
  const bool enforce = env::get_bool("RAMR_BENCH_ENFORCE", false);
  const double budget_pct = 2.0;

  synth::SynthParams input;
  input.elements = std::max<std::size_t>(50'000, 80'000'000 / scale);
  input.keys = 256;
  synth::SynthApp app;
  app.container_keys = input.keys;

  bench::banner("Observability overhead (off vs RAMR_OBS=full)",
                "docs/OBSERVABILITY.md: < 2% budget");

  const double engine_off = min_seconds(
      [&] { return engine_run_seconds(false, app, input); }, repeats);
  const double engine_on = min_seconds(
      [&] { return engine_run_seconds(true, app, input); }, repeats);
  const double service_off = min_seconds(
      [&] { return service_stream_seconds(false, jobs, app, input); },
      repeats);
  const double service_on = min_seconds(
      [&] { return service_stream_seconds(true, jobs, app, input); },
      repeats);

  const auto pct = [](double off, double on) {
    return off > 0.0 ? (on - off) / off * 100.0 : 0.0;
  };
  const double engine_pct = pct(engine_off, engine_on);
  const double service_pct = pct(service_off, service_on);

  stats::Table table(
      {"surface", "off_ms", "on_ms", "overhead_pct", "budget_pct"});
  table.add_row({"engine", stats::Table::fmt(engine_off * 1e3, 2),
                 stats::Table::fmt(engine_on * 1e3, 2),
                 stats::Table::fmt(engine_pct, 2),
                 stats::Table::fmt(budget_pct, 1)});
  table.add_row({"service", stats::Table::fmt(service_off * 1e3, 2),
                 stats::Table::fmt(service_on * 1e3, 2),
                 stats::Table::fmt(service_pct, 2),
                 stats::Table::fmt(budget_pct, 1)});
  bench::print(table);

  if (enforce &&
      (engine_pct > budget_pct || service_pct > budget_pct)) {
    std::cerr << "observability overhead above the " << budget_pct
              << "% budget\n";
    return 1;
  }
  return 0;
}
