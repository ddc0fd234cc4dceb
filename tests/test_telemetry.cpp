// Tests for the telemetry subsystem: metric registry aggregation, the
// sampler thread, PMU capability handling with forced fallback, and the
// two exporters (chrome trace + run report) against embedded goldens.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "core/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/pmu.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/session.hpp"

namespace ramr::telemetry {
namespace {

// ---- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, EscapesAndFormats) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.field("text", "a\"b\\c\n\t\x01z");
  w.field("num", 1.5);
  w.field("neg", std::int64_t{-3});
  w.field("flag", true);
  w.begin_array("arr");
  w.element(std::uint64_t{7});
  w.element("x");
  w.end_array();
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\"text\":\"a\\\"b\\\\c\\n\\t\\u0001z\",\"num\":1.5,"
            "\"neg\":-3,\"flag\":true,\"arr\":[7,\"x\"]}");
}

TEST(JsonWriter, NumbersStayStrictJson) {
  EXPECT_EQ(JsonWriter::number(0.0), "0");
  EXPECT_EQ(JsonWriter::number(-0.0), "0");
  // NaN/inf are not JSON; strict parsers require null.
  EXPECT_EQ(JsonWriter::number(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::number(1.0 / 0.0), "null");
}

// ---- metric registry ------------------------------------------------------

TEST(Metrics, RegistryCreateOrReturnIsIdempotent) {
  MetricRegistry reg(2);
  Counter& a = reg.counter("c");
  Counter& b = reg.counter("c");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
  EXPECT_EQ(a.num_slots(), 2u);
}

TEST(Metrics, CounterAggregatesSingleWriterSlotsUnderThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  MetricRegistry reg(kThreads);
  Counter& counter = reg.counter("ops");
  Histogram& hist = reg.histogram("sizes");
  Gauge& gauge = reg.gauge("level");

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.increment(t);
        hist.record(t, i % 8);
      }
      gauge.set(t, static_cast<double>(t));
    });
  }
  for (auto& th : threads) th.join();

  const MetricsSnapshot snap = reg.collect();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "ops");
  EXPECT_EQ(snap.counters[0].total, kThreads * kPerThread);
  ASSERT_EQ(snap.counters[0].per_slot.size(), kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counters[0].per_slot[t], kPerThread);
  }
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].max, kThreads - 1.0);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  MetricRegistry reg(1);
  Histogram& hist = reg.histogram("h");
  // Values 0..7: bucket 0 holds {0}, bucket 1 {1}, bucket 2 {2,3},
  // bucket 3 {4..7}.
  for (std::uint64_t v = 0; v < 8; ++v) hist.record(0, v);

  const MetricsSnapshot snap = reg.collect();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0];
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 4u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 3u);   // rank 4 falls in bucket 2 -> bound 3
  EXPECT_EQ(h.quantile(1.0), 7u);
  EXPECT_EQ(Histogram::upper_bound(0), 0u);
  EXPECT_EQ(Histogram::upper_bound(1), 1u);
  EXPECT_EQ(Histogram::upper_bound(3), 7u);
}

TEST(Metrics, EmptyHistogramQuantileIsZero) {
  HistogramSnapshot h;
  EXPECT_EQ(h.quantile(0.5), 0u);
}

// ---- sampler --------------------------------------------------------------

TEST(SamplerTest, RejectsNonPositivePeriod) {
  EXPECT_THROW(Sampler(std::chrono::microseconds(0)), ConfigError);
}

TEST(SamplerTest, CollectsMonotoneSeriesWhileWritersRun) {
  // Also a TSan check: the probe reads an atomic the writers bump.
  Sampler sampler(std::chrono::microseconds(200));
  std::atomic<std::uint64_t> value{0};
  auto handle = sampler.scoped_probe(
      "v", [&] { return static_cast<double>(value.load()); });
  sampler.start();
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20'000; ++i) value.fetch_add(1);
    });
  }
  for (auto& th : writers) th.join();
  sampler.stop();

  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "v");
  ASSERT_FALSE(series[0].points.empty());
  for (std::size_t i = 1; i < series[0].points.size(); ++i) {
    EXPECT_GE(series[0].points[i].first, series[0].points[i - 1].first);
    EXPECT_GE(series[0].points[i].second, series[0].points[i - 1].second);
  }
}

// A run shorter than the sampler thread's start-up still records: the
// thread samples every live probe once before it first checks for stop.
TEST(SamplerTest, ImmediateStopStillRecordsOnePoint) {
  Sampler sampler(std::chrono::seconds(60));
  auto handle = sampler.scoped_probe("v", [] { return 7.0; });
  sampler.start();
  sampler.stop();
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_GE(series[0].points.size(), 1u);
  EXPECT_EQ(series[0].points[0].second, 7.0);
}

TEST(SamplerTest, RetiredProbesKeepTheirSeries) {
  Sampler sampler(std::chrono::microseconds(200));
  const std::size_t id = sampler.add_probe("once", [] { return 1.0; });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sampler.remove_probe(id);
  sampler.stop();
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "once");
}

// ---- PMU capability -------------------------------------------------------

TEST(Pmu, EnvAcceptsTheDocumentedSpellings) {
  const std::pair<const char*, PmuMode> spellings[] = {
      {"auto", PmuMode::kAuto}, {"1", PmuMode::kAuto},
      {"on", PmuMode::kOn},     {"force", PmuMode::kOn},
      {"off", PmuMode::kOff},   {"0", PmuMode::kOff},
      {"none", PmuMode::kOff}};
  for (const auto& [spelling, mode] : spellings) {
    env::ScopedOverride o("RAMR_PMU", spelling);
    EXPECT_EQ(RuntimeConfig::from_env().pmu_mode, mode) << spelling;
  }
  env::ScopedOverride bad("RAMR_PMU", "sideways");
  EXPECT_THROW(RuntimeConfig::from_env(), ConfigError);
  EXPECT_EQ(to_string(PmuMode::kAuto), "auto");
  EXPECT_EQ(to_string(PmuMode::kOff), "off");
}

TEST(Pmu, ProbeIsCachedAndNeverThrows) {
  const PmuAvailability& a = pmu_probe();
  const PmuAvailability& b = pmu_probe();
  EXPECT_EQ(&a, &b);
  if (!a.available) {
    EXPECT_FALSE(a.reason.empty());  // callers surface the cause
  }
}

TEST(Pmu, PoolWithNoThreadsIsNotMeasuring) {
  PoolPmu pool({});
  EXPECT_FALSE(pool.measuring());
  pool.begin();  // no-ops, must not crash
  const PmuSample sample = pool.end();
  EXPECT_FALSE(sample.instructions_valid);
}

// ---- session --------------------------------------------------------------

TEST(SessionTest, FromConfigIsNullWhenTelemetryOff) {
  RuntimeConfig cfg;
  EXPECT_EQ(Session::from_config(cfg, 2, 1), nullptr);
  cfg.obs = ObsLevel::kMetrics;
  cfg.pmu_mode = PmuMode::kOff;
  auto session = Session::from_config(cfg, 2, 1);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->pmu_mode(), PmuMode::kOff);
  EXPECT_EQ(session->options().num_mappers, 2u);
}

// HG combines in its map, so core::Runtime runs it fused on one pool of
// every CPU: wider than the config's resolved mapper count (4 of 8 CPUs).
// Each worker's metric slot must exist in the session (ASan catches one
// that does not).
TEST(SessionTest, FusedRunSizesTheSessionToTheLeasedPool) {
  env::ScopedOverride obs("RAMR_OBS", "metrics");
  env::ScopedOverride pmu("RAMR_PMU", "off");
  RuntimeConfig cfg = RuntimeConfig::from_env();
  cfg.pin_policy = PinPolicy::kOsDefault;
  const topo::Topology topo = topo::make_server("telemetry-fused", 1, 4, 2);
  ASSERT_EQ(topo.num_logical(), 8u);
  using App = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput input{apps::make_pixels(200000, 5), 1024};
  core::Runtime<App> rt(topo, cfg);
  const auto r = rt.run(App{}, input);

  EXPECT_EQ(r.plan.strategy, "fused");
  Session* session = rt.telemetry();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->options().num_mappers, 8u);
  EXPECT_EQ(session->options().num_combiners, 0u);
  EXPECT_EQ(session->engine_metrics()->tasks_executed->total(),
            r.tasks_executed);
  const std::map<std::uint64_t, std::uint64_t> got(r.pairs.begin(),
                                                   r.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(input));
}

TEST(SessionTest, ForcedPmuOffFallsBackToTheModel) {
  SessionOptions opt;
  opt.pmu = PmuMode::kOff;  // RAMR_PMU=off: never open hardware counters
  opt.num_mappers = 2;
  opt.num_combiners = 1;
  Session session(opt);
  session.attach_pools({1, 2}, {3});  // must be ignored under kOff
  session.begin_run(Clock::now());
  session.begin_phase(Phase::kMapCombine);
  session.end_phase(Phase::kMapCombine, 0.5);
  session.end_run();
  EXPECT_FALSE(session.pmu_active());
  EXPECT_DOUBLE_EQ(session.phase_seconds(Phase::kMapCombine), 0.5);

  // Without a model the cell is unlabeled...
  EXPECT_EQ(session.phase_counters(Phase::kMapCombine, PoolKind::kMapper)
                .source,
            CounterSource::kNone);

  // ...and with one it reports the analytic source, input bytes filled in.
  session.set_input_bytes(1024.0);
  perf::Counters model;
  model.instructions = 100.0;
  model.mem_stall_cycles = 10.0;
  model.resource_stall_cycles = 5.0;
  session.set_modeled(Phase::kMapCombine, PoolKind::kMapper, model);
  const PhaseCounters pc =
      session.phase_counters(Phase::kMapCombine, PoolKind::kMapper);
  EXPECT_EQ(pc.source, CounterSource::kModel);
  EXPECT_DOUBLE_EQ(pc.counters.instructions, 100.0);
  EXPECT_DOUBLE_EQ(pc.counters.input_bytes, 1024.0);
  EXPECT_FALSE(pc.cycles_measured);
}

TEST(SessionTest, EngineMetricHandlesArePreCreated) {
  SessionOptions opt;
  opt.pmu = PmuMode::kOff;
  opt.num_mappers = 2;
  opt.num_combiners = 2;
  Session session(opt);
  EngineMetrics* m = session.engine_metrics();
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->tasks_executed, nullptr);
  ASSERT_NE(m->batch_sizes, nullptr);
  ASSERT_NE(m->queue_max_occupancy, nullptr);
  EXPECT_EQ(m->combiner_slot_base, 2u);
  EXPECT_EQ(m->combiner_slot(1), 3u);
  m->tasks_executed->increment(0);
  m->tasks_executed->increment(m->combiner_slot(0));
  EXPECT_EQ(m->tasks_executed->total(), 2u);
}

// ---- exporters ------------------------------------------------------------

// The golden inputs are hand-built (deterministic timestamps), so the
// serialised form is byte-stable; a formatting change must update these
// goldens deliberately.
TEST(Exporters, ChromeTraceMatchesGolden) {
  std::vector<LaneView> lanes(2);
  lanes[0].name = "driver";
  lanes[0].events = {
      {0.0, trace::EventKind::kPhaseStart, 0, 1},
      {0.001, trace::EventKind::kPhaseEnd, 0, 1},
  };
  lanes[1].name = "mapper-0";
  lanes[1].events = {
      {0.0001, trace::EventKind::kTaskStart, 1, 7},
      {0.0005, trace::EventKind::kTaskEnd, 1, 7},
      {0.0006, trace::EventKind::kBackoffSleep, 1, 1},
  };
  std::vector<Sampler::Series> series(1);
  series[0].name = "queue_occupancy_total";
  series[0].points = {{0.0002, 3.0}, {0.0004, 5.0}};

  std::ostringstream out;
  chrome_trace_json(out, lanes, series, "golden");
  const std::string kGolden =
      R"({"traceEvents":[{"ph":"M","name":"process_name","pid":1,"args":{"name":"golden"}},)"
      R"({"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"driver"}},)"
      R"({"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"mapper-0"}},)"
      R"({"name":"map-combine","ph":"B","ts":0,"pid":1,"tid":0},)"
      R"({"name":"map-combine","ph":"E","ts":1000,"pid":1,"tid":0},)"
      R"({"name":"task","ph":"B","ts":100,"pid":1,"tid":1,"args":{"first_split":7}},)"
      R"({"name":"task","ph":"E","ts":500,"pid":1,"tid":1},)"
      R"({"name":"backoff-sleep","ph":"i","ts":600,"pid":1,"tid":1,"s":"t","args":{"arg":1}},)"
      R"({"name":"queue_occupancy_total","ph":"C","ts":200,"pid":1,"tid":2,"args":{"value":3}},)"
      R"({"name":"queue_occupancy_total","ph":"C","ts":400,"pid":1,"tid":2,"args":{"value":5}}],)"
      R"("displayTimeUnit":"ms"})"
      "\n";
  EXPECT_EQ(out.str(), kGolden);
}

TEST(Exporters, EffectiveConfigTakesDecidedPlanKnobsFromThePlan) {
  RuntimeConfig cfg;
  cfg.batch_size = 64;
  cfg.pinned.set(Knob::kBatchSize);  // as RAMR_BATCH_SIZE=64 would
  engine::PlanInfo plan;
  plan.strategy = "pipelined";
  plan.ratio = 3;
  plan.batch_size = 512;  // the cache may not override a pinned knob
  plan.source = "cache";
  std::map<std::string, KnobSetting> by_env;
  for (const KnobSetting& k : effective_config(cfg, plan)) by_env[k.env] = k;
  ASSERT_EQ(by_env.size(), kKnobCount);
  EXPECT_EQ(by_env["RAMR_RATIO"].value, "3");
  EXPECT_EQ(by_env["RAMR_RATIO"].source, "cache");
  EXPECT_EQ(by_env["RAMR_BATCH_SIZE"].value, "64");
  EXPECT_EQ(by_env["RAMR_BATCH_SIZE"].source, "env");
  EXPECT_EQ(by_env["RAMR_TASK_SIZE"].source, "default");
}

TEST(Exporters, RunReportMatchesGolden) {
  RunReport report;
  report.app = "mini";
  report.runtime = "ramr";
  report.effective_config = {{"RAMR_MAPPERS", "2", "env"},
                             {"RAMR_BATCH_SIZE", "64", "probe"}};
  report.pmu_mode = "off";
  report.pmu_available = false;
  report.pmu_reason = "forced off";
  report.pmu_active = false;
  report.input_bytes = 1024.0;
  report.result.split_seconds = 0.001;
  report.result.map_combine_seconds = 0.01;
  report.result.pairs = 3;
  report.result.tasks_executed = 4;
  report.result.queue_pushes = 100;
  report.result.dispatch.simd_path = "avx2";
  report.result.dispatch.isa = "avx2";
  PhaseEntry entry;
  entry.phase = "map-combine";
  entry.pool = "mapper";
  entry.source = "model";
  entry.seconds = 0.01;
  entry.counters.instructions = 8192;
  entry.counters.mem_stall_cycles = 512;
  entry.counters.resource_stall_cycles = 256;
  entry.counters.input_bytes = 1024;
  report.phases.push_back(entry);
  CounterSnapshot cs;
  cs.name = "tasks_executed";
  cs.total = 4;
  cs.per_slot = {3, 1};
  report.metrics.counters.push_back(cs);
  GaugeSnapshot gs;
  gs.name = "queue_max_occupancy";
  gs.max = 5.0;
  gs.per_slot = {5.0, 2.0};
  report.metrics.gauges.push_back(gs);
  HistogramSnapshot hs;
  hs.name = "batch_sizes";
  hs.count = 3;
  hs.buckets[2] = 2;
  hs.buckets[3] = 1;
  report.metrics.histograms.push_back(hs);
  Sampler::Series series;
  series.name = "heartbeat/mapper-0";
  series.points = {{0.001, 1.0}};
  report.series.push_back(series);

  std::ostringstream out;
  run_report_json(out, report);
  const std::string kGolden =
      R"({"schema":"ramr-run-report-v1","app":"mini","runtime":"ramr",)"
      R"("effective_config":{"RAMR_MAPPERS":{"value":"2","source":"env"},)"
      R"("RAMR_BATCH_SIZE":{"value":"64","source":"probe"}},)"
      R"("pmu":{"mode":"off","available":false,"reason":"forced off","active":false},)"
      R"("input_bytes":1024,)"
      R"("result":{"split_seconds":0.001,"map_combine_seconds":0.01,)"
      R"("reduce_seconds":0,"merge_seconds":0,"pairs":3,"tasks_executed":4,)"
      R"("local_pops":0,"steals":0,"queue_pushes":100,"queue_failed_pushes":0,)"
      R"("queue_batches":0,"queue_push_batches":0,)"
      R"("queue_max_occupancy":0,"backoff_sleeps":0,)"
      R"("task_retries":0,"task_aborts":0},)"
      R"("memory":{"peak_rss_bytes":0},)"
      R"("dispatch":{"simd_path":"avx2","isa":"avx2"},)"
      R"("phases":[{"phase":"map-combine","pool":"mapper","source":"model",)"
      R"("seconds":0.01,"instructions":8192,"mem_stall_cycles":512,)"
      R"("resource_stall_cycles":256,"input_bytes":1024,)"
      R"("ipb":8,"mspi":0.0625,"rspi":0.03125}],)"
      R"("metrics":{"counters":[{"name":"tasks_executed","total":4,"per_slot":[3,1]}],)"
      R"("gauges":[{"name":"queue_max_occupancy","max":5,"per_slot":[5,2]}],)"
      R"("histograms":[{"name":"batch_sizes","count":3,"p50":3,"p90":7,"p99":7,)"
      R"("max":7,"buckets":[[2,2],[3,1]]}]},)"
      R"("series":[{"name":"heartbeat/mapper-0","dropped":0,"points":[[0.001,1]]}]})"
      "\n";
  EXPECT_EQ(out.str(), kGolden);
}

TEST(Exporters, LaneViewsSnapshotARecorder) {
  trace::Recorder rec;
  trace::Lane& lane = rec.lane("w0");
  lane.record(rec.epoch(), trace::EventKind::kTaskStart, 2);
  lane.record(rec.epoch(), trace::EventKind::kTaskEnd, 2);
  const auto lanes = lane_views(rec);
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].name, "w0");
  ASSERT_EQ(lanes[0].events.size(), 2u);
  EXPECT_EQ(lanes[0].events[0].kind, trace::EventKind::kTaskStart);
}

TEST(Exporters, WriteJsonFileRoundTripsAndThrowsOnBadPath) {
  const std::string path = "test_telemetry_artifact.json";
  write_json_file(path, [](std::ostream& out) { out << "{\"ok\":true}"; });
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.substr(0, 11), "{\"ok\":true}");
  std::remove(path.c_str());
  EXPECT_THROW(
      write_json_file("no_such_dir/x.json", [](std::ostream&) {}), Error);
}

}  // namespace
}  // namespace ramr::telemetry
