// Observability plane (docs/OBSERVABILITY.md, docs/ARCHITECTURE.md §14):
// the ramr-metrics-v1 scrape formats and their Prometheus/JSON parity, the
// flight-recorder ring and its post-mortem dumps, the stitched service
// trace, and the straggler/skew profiler on a synthetic zipf stream. The
// scheduler-level tests run with the plane on and assert the exported
// counters exactly match ServiceStats. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/runtime.hpp"
#include "engine/skew_profiler.hpp"
#include "mini_apps.hpp"
#include "service/scheduler.hpp"
#include "synth/zipf.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_export.hpp"
#include "topology/topology.hpp"

namespace ramr {
namespace {

using testing::make_numbers;
using testing::ModCountApp;
using testing::pairs_match;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------- metrics exporters ------------------------------------------------

telemetry::ServiceMetricsFrame golden_frame() {
  telemetry::ServiceMetricsFrame frame;
  frame.uptime_seconds = 1.5;
  frame.queue_depth = 3;
  frame.running = 2;
  frame.cores_total = 8;
  frame.cores_leased = 6;
  frame.depot_built = 4;
  frame.depot_reused = 9;
  frame.depot_shelved = 1;
  frame.depot_leased = 2;
  frame.counters = {{"submitted", 10}, {"done", 7}, {"retries", 2}};
  frame.apps.push_back({"kmeans", 0.25, 7, 1, "open"});
  frame.apps.push_back({"wordcount", 0.5, 3, 0, "closed"});
  return frame;
}

TEST(MetricsExport, PrometheusGolden) {
  const std::string prom = telemetry::metrics_prometheus(golden_frame());
  EXPECT_TRUE(contains(prom, "# TYPE ramr_service_queue_depth gauge"));
  EXPECT_TRUE(contains(prom, "ramr_service_queue_depth 3\n"));
  EXPECT_TRUE(contains(prom, "ramr_service_cores_leased 6\n"));
  EXPECT_TRUE(contains(prom, "ramr_depot_shelved 1\n"));
  EXPECT_TRUE(contains(prom, "# TYPE ramr_service_submitted_total counter"));
  EXPECT_TRUE(contains(prom, "ramr_service_submitted_total 10\n"));
  EXPECT_TRUE(contains(prom, "ramr_service_retries_total 2\n"));
  EXPECT_TRUE(contains(prom, "ramr_app_ewma_seconds{app=\"kmeans\"} 0.25\n"));
  EXPECT_TRUE(contains(prom, "ramr_app_samples{app=\"wordcount\"} 3\n"));
  // Breaker states graph as 0/1/2.
  EXPECT_TRUE(contains(prom, "ramr_app_breaker_state{app=\"kmeans\"} 1\n"));
  EXPECT_TRUE(
      contains(prom, "ramr_app_breaker_state{app=\"wordcount\"} 0\n"));
}

TEST(MetricsExport, JsonGolden) {
  const std::string json = telemetry::metrics_json(golden_frame());
  EXPECT_TRUE(contains(json, "\"schema\":\"ramr-metrics-v1\""));
  EXPECT_TRUE(contains(json, "\"queue_depth\":3"));
  EXPECT_TRUE(contains(json, "\"cores_leased\":6"));
  EXPECT_TRUE(contains(json, "\"shelved\":1"));
  EXPECT_TRUE(contains(json, "\"submitted\":10"));
  EXPECT_TRUE(contains(json, "\"retries\":2"));
  EXPECT_TRUE(contains(json, "\"name\":\"kmeans\""));
  EXPECT_TRUE(contains(json, "\"breaker\":\"open\""));
  EXPECT_TRUE(contains(json, "\"breaker_state\":1"));
}

// The two formats are rendered from the same frame; spot-check that every
// counter value the JSON carries also appears in the text format.
TEST(MetricsExport, PrometheusJsonParity) {
  const telemetry::ServiceMetricsFrame frame = golden_frame();
  const std::string prom = telemetry::metrics_prometheus(frame);
  const std::string json = telemetry::metrics_json(frame);
  for (const auto& [name, value] : frame.counters) {
    const std::string sample =
        "ramr_service_" + name + "_total " + std::to_string(value) + "\n";
    EXPECT_TRUE(contains(prom, sample)) << sample;
    const std::string field = "\"" + name + "\":" + std::to_string(value);
    EXPECT_TRUE(contains(json, field)) << field;
  }
}

TEST(MetricsExport, PrometheusLabelEscaping) {
  telemetry::ServiceMetricsFrame frame;
  frame.apps.push_back({"we\"ird\\app", 0.1, 1, 0, "closed"});
  const std::string prom = telemetry::metrics_prometheus(frame);
  EXPECT_TRUE(contains(prom, "{app=\"we\\\"ird\\\\app\"}"));
}

TEST(MetricsExport, BreakerStateValues) {
  EXPECT_EQ(telemetry::breaker_state_value("closed"), 0);
  EXPECT_EQ(telemetry::breaker_state_value("open"), 1);
  EXPECT_EQ(telemetry::breaker_state_value("half-open"), 2);
  EXPECT_EQ(telemetry::breaker_state_value("???"), 0);
}

// ---------- flight recorder --------------------------------------------------

TEST(FlightRecorder, RingWrapsOldestFirst) {
  telemetry::FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(static_cast<std::uint64_t>(i), "event-" + std::to_string(i),
               {});
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(events.front().kind, "event-6");
  EXPECT_EQ(events.back().kind, "event-9");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].seconds, events[i - 1].seconds);
  }
}

TEST(FlightRecorder, DumpCarriesReasonConfigAndExtra) {
  telemetry::FlightRecorder rec(8);
  RuntimeConfig knobs;
  knobs.service_breaker_k = 3;
  rec.set_config("topo=test cores=8", knob_settings(knobs));
  rec.record(7, "retry", "attempt 1 failed: boom");
  std::ostringstream os;
  rec.dump_json(os, "job-failed", [](telemetry::JsonWriter& w) {
    w.field("answer", std::uint64_t{42});
  });
  const std::string dump = os.str();
  EXPECT_TRUE(contains(dump, "\"schema\":\"ramr-flight-v1\""));
  EXPECT_TRUE(contains(dump, "\"reason\":\"job-failed\""));
  EXPECT_TRUE(contains(dump, "\"context\":\"topo=test cores=8\""));
  EXPECT_TRUE(contains(
      dump, "\"RAMR_BREAKER_K\":{\"value\":\"3\",\"source\":\"config\"}"));
  EXPECT_TRUE(contains(dump, "\"kind\":\"retry\""));
  EXPECT_TRUE(contains(dump, "attempt 1 failed: boom"));
  EXPECT_TRUE(contains(dump, "\"answer\":42"));
}

// ---------- skew profiler ----------------------------------------------------

TEST(Zipf, SkewProfilerFindsHotKeyOnZipfStream) {
  // A zipf(1.2) stream over 1024 keys: rank 0 dominates, and the sampled
  // count-min estimate must rank it first among the reported hot keys.
  const std::vector<std::uint64_t> stream =
      synth::ZipfGenerator::sample(200000, 1024, 1.2, 99);
  engine::SkewProfiler prof(/*num_mappers=*/2, /*num_combiners=*/2);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t mapper = i & 1;
    if (prof.tick(mapper)) prof.sample_key(mapper, stream[i]);
  }
  prof.add_busy(0, 0.010);
  prof.add_busy(1, 0.030);
  prof.add_drained(0, 1000, 16);
  prof.add_drained(1, 3000, 128);

  const engine::SkewStats s = prof.finalize(
      [](std::size_t m) { return "mapper-" + std::to_string(m); });
  EXPECT_TRUE(s.enabled);
  EXPECT_GT(s.sampled, 2000u);  // 200k emissions / 64 per sample
  ASSERT_FALSE(s.hot_keys.empty());
  EXPECT_EQ(s.hot_keys[0].key, "0");  // rank 0 is the hottest key
  EXPECT_GT(s.hot_keys[0].share, 0.05);
  for (std::size_t i = 1; i < s.hot_keys.size(); ++i) {
    EXPECT_GE(s.hot_keys[i - 1].est_count, s.hot_keys[i].est_count);
  }
  // Busy time: mapper 1 did 3x the work of mapper 0.
  EXPECT_NEAR(s.map_imbalance, 1.5, 0.01);  // 0.030 / mean(0.020)
  EXPECT_EQ(s.straggler, "mapper-1");
  EXPECT_NEAR(s.drain_imbalance, 1.5, 0.01);  // 3000 / mean(2000)
  EXPECT_EQ(s.ring_depth, 128u);
  EXPECT_TRUE(contains(s.summary(), "skew: map_imb=1.50"));
  EXPECT_TRUE(contains(s.summary(), "straggler=mapper-1"));
}

TEST(Zipf, ProfilerOffByDefaultInRun) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  const topo::Topology topo = topo::make_server("obs-test", 1, 2, 2);
  const ModCountApp app;
  const auto input = make_numbers(20000, 17);

  core::Runtime<ModCountApp> runtime(topo, cfg);
  const auto result = runtime.run(app, input);
  EXPECT_FALSE(result.skew.enabled);
  EXPECT_FALSE(contains(result.summary(), "skew:"));
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
}

TEST(Zipf, ProfilerOnWhenObservabilitySet) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.obs = ObsLevel::kFull;
  const topo::Topology topo = topo::make_server("obs-test", 1, 2, 2);
  const ModCountApp app;  // 16 buckets: every key is hot
  const auto input = make_numbers(50000, 17);

  core::Runtime<ModCountApp> runtime(topo, cfg);
  const auto result = runtime.run(app, input);
  EXPECT_TRUE(result.skew.enabled);
  EXPECT_GT(result.skew.sampled, 0u);
  EXPECT_GE(result.skew.map_imbalance, 1.0);
  EXPECT_FALSE(result.skew.straggler.empty());
  EXPECT_FALSE(result.skew.hot_keys.empty());
  EXPECT_TRUE(contains(result.summary(), "skew:"));
  // Profiling must not perturb the answer.
  EXPECT_TRUE(pairs_match(result.pairs, app.reference(input)));
}

// HG combines in its map, so it runs fused on a single pool whose config
// the pool set synthesizes: RAMR_OBS=full must still reach the driver.
TEST(Zipf, ProfilerOnForAFusedTraitRun) {
  RuntimeConfig cfg;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.obs = ObsLevel::kFull;
  using App = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput input{apps::make_pixels(200000, 3), 1024};

  core::Runtime<App> runtime(topo::make_server("obs-test", 1, 2, 2), cfg);
  const auto result = runtime.run(App{}, input);
  EXPECT_EQ(result.plan.strategy, "fused");
  EXPECT_TRUE(result.skew.enabled);
  EXPECT_GE(result.skew.map_imbalance, 1.0);
  EXPECT_TRUE(contains(result.summary(), "skew:"));
}

// ---------- scheduler plane --------------------------------------------------

RuntimeConfig job_config() {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 256;
  cfg.batch_size = 16;
  return cfg;
}

topo::Topology small_server() {
  return topo::make_server("obs-test", 1, 4, 2);  // 8 logical CPUs
}

TEST(ServiceObs, CountersMatchServiceStatsExactly) {
  service::Scheduler::Options opts;
  opts.observability = true;
  opts.metrics_interval_ms = 10;
  opts.postmortem_path = "";  // no dumps from this test
  opts.max_retries = 2;
  opts.fault_spec = "job_run=0,job_fires=1";  // first attempt faults
  service::Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(10000, 23);
  service::JobSpec spec;
  spec.name = "parity";
  spec.cores = 4;
  spec.config = job_config();
  auto [id, future] = sched.submit(spec, app, input);
  const service::JobReport r = sched.wait(id);
  ASSERT_EQ(r.status, service::JobStatus::kDone) << r.describe();
  EXPECT_EQ(r.trace_id, "parity#" + std::to_string(id));
  EXPECT_TRUE(pairs_match(future.get().pairs, app.reference(input)));

  const service::ServiceStats stats = sched.stats();
  const telemetry::ServiceMetricsFrame frame = sched.metrics_frame();
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"submitted", stats.submitted},   {"done", stats.done},
      {"failed", stats.failed},         {"cancelled", stats.cancelled},
      {"rejected", stats.rejected},     {"shed", stats.shed},
      {"retries", stats.retries},       {"degraded", stats.degraded},
      {"breaker_trips", stats.breaker_trips},
      {"breaker_rejects", stats.breaker_rejects},
      {"job_faults", stats.job_faults}};
  ASSERT_EQ(frame.counters.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(frame.counters[i].first, expected[i].first);
    EXPECT_EQ(frame.counters[i].second, expected[i].second)
        << frame.counters[i].first;
  }
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.job_faults, 1u);

  // Both scrape formats render that frame's numbers.
  const std::string prom = sched.metrics_text();
  EXPECT_TRUE(contains(prom, "ramr_service_retries_total 1\n"));
  EXPECT_TRUE(contains(prom, "ramr_service_done_total 1\n"));
  const std::string json = sched.metrics_json();
  EXPECT_TRUE(contains(json, "\"schema\":\"ramr-metrics-v1\""));
  EXPECT_TRUE(contains(json, "\"retries\":1"));
  // The app row exists once the job succeeded.
  EXPECT_TRUE(contains(json, "\"name\":\"parity\""));
}

TEST(ServiceObs, StitchedTraceHasLifecycleAndRunLanes) {
  service::Scheduler::Options opts;
  opts.observability = true;
  opts.metrics_interval_ms = 10;
  opts.postmortem_path = "";
  opts.max_retries = 1;
  opts.fault_spec = "job_run=0,job_fires=1";  // force one retry
  service::Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(5000, 29);
  service::JobSpec spec;
  spec.name = "traced";
  spec.cores = 4;
  spec.config = job_config();
  auto [id, future] = sched.submit(spec, app, input);
  (void)future;
  ASSERT_EQ(sched.wait(id).status, service::JobStatus::kDone);

  std::ostringstream os;
  sched.write_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(contains(trace, "\"traceEvents\""));
  // pid 0 is the scheduler with its counter tracks.
  EXPECT_TRUE(contains(trace, "\"scheduler\""));
  // The job has its own named process track and lifecycle spans.
  EXPECT_TRUE(
      contains(trace, "job " + std::to_string(id) + ": traced"));
  EXPECT_TRUE(contains(trace, "\"lifecycle\""));
  EXPECT_TRUE(contains(trace, "\"queued\""));
  EXPECT_TRUE(contains(trace, "\"run\""));
  EXPECT_TRUE(contains(trace, "\"retry\""));
  EXPECT_TRUE(contains(trace, "\"done\""));
  // Per-run engine lanes stitched under the job's process.
  EXPECT_TRUE(contains(trace, "\"mapper-0\""));
  EXPECT_TRUE(contains(trace, "\"driver\""));
}

TEST(ServiceObs, TraceUnavailableWhenPlaneOff) {
  service::Scheduler sched(small_server());
  EXPECT_FALSE(sched.observability());
  std::ostringstream os;
  EXPECT_THROW(sched.write_trace(os), Error);
  // The scrape surface still works without the plane.
  EXPECT_TRUE(contains(sched.metrics_json(), "ramr-metrics-v1"));
}

TEST(ServiceObs, PostmortemOnJobFailure) {
  const std::string path = "obs_postmortem_fail.json";
  std::remove(path.c_str());
  service::Scheduler::Options opts;
  opts.observability = true;
  opts.metrics_interval_ms = 10;
  opts.postmortem_path = path;
  opts.max_retries = 1;
  opts.fault_spec = "job_run=0,job_fires=100";  // every attempt faults
  service::Scheduler sched(small_server(), opts);

  const ModCountApp app;
  const auto input = make_numbers(1000, 31);
  service::JobSpec spec;
  spec.name = "doomed-obs";
  spec.cores = 4;
  spec.config = job_config();
  auto [id, future] = sched.submit(spec, app, input);
  (void)future;
  ASSERT_EQ(sched.wait(id).status, service::JobStatus::kFailed);

  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "post-mortem not written to " << path;
  EXPECT_TRUE(contains(dump, "\"schema\":\"ramr-flight-v1\""));
  EXPECT_TRUE(contains(dump, "\"reason\":\"job-failed\""));
  // Names the aborted job by trace id and carries its lifecycle.
  EXPECT_TRUE(contains(dump, "doomed-obs#" + std::to_string(id)));
  EXPECT_TRUE(contains(dump, "\"kind\":\"retry\""));
  EXPECT_TRUE(contains(dump, "\"status\":\"failed\""));
  std::remove(path.c_str());
}

TEST(ServiceObs, PostmortemOnBreakerOpen) {
  const std::string path = "obs_postmortem_breaker.json";
  std::remove(path.c_str());
  service::Scheduler::Options opts;
  opts.observability = true;
  opts.metrics_interval_ms = 10;
  opts.postmortem_path = path;
  opts.breaker_k = 1;  // first final failure trips the breaker
  opts.fault_spec = "job_run=0,job_fires=100";
  service::Scheduler sched(small_server(), opts);

  service::JobSpec spec;
  spec.name = "breaker-obs";
  const service::JobId id = sched.submit(spec, [](service::JobContext&) {});
  ASSERT_EQ(sched.wait(id).status, service::JobStatus::kFailed);

  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(contains(dump, "\"reason\":\"breaker-open\""));
  EXPECT_TRUE(contains(dump, "breaker-obs#" + std::to_string(id)));
  EXPECT_EQ(sched.stats().breaker_trips, 1u);
  // The metrics frame reports the open breaker for the app row.
  bool found = false;
  for (const auto& app : sched.metrics_frame().apps) {
    if (app.name == "breaker-obs") {
      EXPECT_EQ(app.breaker, "open");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(ServiceObs, MetricsPathDumpedBySampler) {
  const std::string path = "obs_metrics_dump.prom";
  std::remove(path.c_str());
  {
    service::Scheduler::Options opts;
    opts.observability = true;
    opts.metrics_interval_ms = 5;
    opts.metrics_path = path;
    opts.postmortem_path = "";
    service::Scheduler sched(small_server(), opts);
    service::JobSpec spec;
    spec.name = "dumped";
    const service::JobId id =
        sched.submit(spec, [](service::JobContext&) {});
    sched.wait(id);
    sched.shutdown();  // final sampler flush happens before join
  }
  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "sampler never wrote " << path;
  EXPECT_TRUE(contains(dump, "ramr_service_uptime_seconds"));
  EXPECT_TRUE(contains(dump, "ramr_service_submitted_total 1"));
  std::remove(path.c_str());
}

// With the plane off, reports and summaries carry no observability text at
// all (the byte-identical-output contract).
TEST(ServiceObs, OffByDefaultLeavesReportsUntouched) {
  service::Scheduler sched(small_server());
  const ModCountApp app;
  const auto input = make_numbers(5000, 37);
  service::JobSpec spec;
  spec.name = "plain";
  spec.cores = 4;
  spec.config = job_config();
  auto [id, future] = sched.submit(spec, app, input);
  (void)future;
  const service::JobReport r = sched.wait(id);
  ASSERT_EQ(r.status, service::JobStatus::kDone);
  EXPECT_FALSE(contains(r.describe(), "trace"));
  EXPECT_FALSE(contains(r.run_summary, "skew:"));
  EXPECT_EQ(r.trace_id, "plain#" + std::to_string(id));  // stamped, unused
}

}  // namespace
}  // namespace ramr
