#include "telemetry/export.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "telemetry/json.hpp"

namespace ramr::telemetry {

namespace {

// Trace-event timestamps are microseconds.
double micros(double seconds) { return seconds * 1e6; }

void event_common(JsonWriter& w, const char* ph, double ts, std::uint64_t pid,
                  std::uint64_t tid) {
  w.field("ph", ph);
  w.field("ts", ts);
  w.field("pid", pid);
  w.field("tid", tid);
}

}  // namespace

void chrome_process_name_json(JsonWriter& w, std::uint64_t pid,
                              const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("name", "process_name");
  w.field("pid", pid);
  w.begin_object("args");
  w.field("name", name);
  w.end_object();
  w.end_object();
}

void chrome_thread_name_json(JsonWriter& w, std::uint64_t pid,
                             std::uint64_t tid, const std::string& name) {
  w.begin_object();
  w.field("ph", "M");
  w.field("name", "thread_name");
  w.field("pid", pid);
  w.field("tid", tid);
  w.begin_object("args");
  w.field("name", name);
  w.end_object();
  w.end_object();
}

void chrome_lane_events_json(JsonWriter& w, const LaneView& lane,
                             std::uint64_t pid, std::uint64_t tid,
                             double ts_offset_us) {
  for (const trace::Event& e : lane.events) {
    const double ts = micros(e.seconds) + ts_offset_us;
    w.begin_object();
    switch (e.kind) {
      case trace::EventKind::kTaskStart:
        w.field("name", "task");
        event_common(w, "B", ts, pid, tid);
        w.begin_object("args");
        w.field("first_split", e.arg);
        w.end_object();
        break;
      case trace::EventKind::kTaskEnd:
        w.field("name", "task");
        event_common(w, "E", ts, pid, tid);
        break;
      case trace::EventKind::kPhaseStart:
        w.field("name", phase_name(static_cast<Phase>(e.arg)));
        event_common(w, "B", ts, pid, tid);
        break;
      case trace::EventKind::kPhaseEnd:
        w.field("name", phase_name(static_cast<Phase>(e.arg)));
        event_common(w, "E", ts, pid, tid);
        break;
      default:
        // Instant event named after the kind; arg carried for reference.
        w.field("name", trace::to_string(e.kind));
        event_common(w, "i", ts, pid, tid);
        w.field("s", "t");  // thread-scoped instant
        w.begin_object("args");
        w.field("arg", e.arg);
        w.end_object();
        break;
    }
    w.end_object();
  }
}

std::vector<LaneView> lane_views(const trace::Recorder& recorder) {
  std::vector<LaneView> views;
  views.reserve(recorder.lane_count());
  for (std::size_t i = 0; i < recorder.lane_count(); ++i) {
    const trace::Lane& lane = recorder.lane_at(i);
    views.push_back(LaneView{lane.name(), lane.events()});
  }
  return views;
}

void chrome_trace_json(std::ostream& out, const std::vector<LaneView>& lanes,
                       const std::vector<Sampler::Series>& series,
                       const std::string& process_name) {
  JsonWriter w(out);
  w.begin_object();
  w.begin_array("traceEvents");

  // Metadata: process name and one thread_name entry per lane.
  chrome_process_name_json(w, 1, process_name);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    chrome_thread_name_json(w, 1, static_cast<std::uint64_t>(i),
                            lanes[i].name);
  }

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    chrome_lane_events_json(w, lanes[i], 1, static_cast<std::uint64_t>(i));
  }

  // Sampler series as counter tracks on their own tids (after the lanes).
  for (std::size_t s = 0; s < series.size(); ++s) {
    const auto tid = static_cast<std::uint64_t>(lanes.size() + s);
    for (const auto& [t, v] : series[s].points) {
      w.begin_object();
      w.field("name", series[s].name);
      event_common(w, "C", micros(t), 1, tid);
      w.begin_object("args");
      w.field("value", v);
      w.end_object();
      w.end_object();
    }
  }

  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  out << "\n";
}

std::vector<KnobSetting> effective_config(RuntimeConfig cfg,
                                          const engine::PlanInfo& plan) {
  if (plan.decided() && plan.source != "env") {
    if (!cfg.pinned[Knob::kRatio] && plan.ratio > 0) {
      cfg.mapper_combiner_ratio = plan.ratio;
    }
    if (!cfg.pinned[Knob::kBatchSize] && plan.batch_size > 0) {
      cfg.batch_size = plan.batch_size;
    }
    if (!cfg.pinned[Knob::kQueueCapacity] && plan.queue_capacity > 0) {
      cfg.queue_capacity = plan.queue_capacity;
    }
    if (!cfg.pinned[Knob::kPinPolicy] && !plan.pin_policy.empty()) {
      cfg.pin_policy = parse_pin_policy(plan.pin_policy);
    }
  }
  return knob_settings(cfg, plan.source);
}

void fill_from_session(RunReport& report, const Session& session) {
  report.pmu_mode = to_string(session.pmu_mode());
  report.pmu_available = pmu_probe().available;
  report.pmu_reason = pmu_probe().reason;
  report.pmu_active = session.pmu_active();
  report.input_bytes = session.input_bytes();
  report.phases.clear();
  for (std::size_t ph = 0; ph < kPhaseCount; ++ph) {
    const auto phase = static_cast<Phase>(ph);
    for (std::size_t pl = 0; pl < kPoolKinds; ++pl) {
      const auto pool = static_cast<PoolKind>(pl);
      const PhaseCounters pc = session.phase_counters(phase, pool);
      if (pc.source == CounterSource::kNone) continue;
      PhaseEntry entry;
      entry.phase = phase_name(phase);
      entry.pool = to_string(pool);
      entry.source = to_string(pc.source);
      entry.seconds = session.phase_seconds(phase);
      entry.counters = pc.counters;
      entry.cycles = pc.cycles;
      entry.cycles_measured = pc.cycles_measured;
      entry.mem_stall_measured = pc.mem_stall_measured;
      entry.resource_stall_measured = pc.resource_stall_measured;
      report.phases.push_back(std::move(entry));
    }
  }
  report.metrics = session.metrics();
  report.series = session.series();
}

void run_report_json(std::ostream& out, const RunReport& report) {
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", "ramr-run-report-v1");
  w.field("app", report.app);
  w.field("runtime", report.runtime);
  write_effective_config(w, report.effective_config);

  w.begin_object("pmu");
  w.field("mode", report.pmu_mode);
  w.field("available", report.pmu_available);
  if (!report.pmu_available) w.field("reason", report.pmu_reason);
  w.field("active", report.pmu_active);
  w.end_object();

  w.field("input_bytes", report.input_bytes);

  w.begin_object("result");
  w.field("split_seconds", report.result.split_seconds);
  w.field("map_combine_seconds", report.result.map_combine_seconds);
  w.field("reduce_seconds", report.result.reduce_seconds);
  w.field("merge_seconds", report.result.merge_seconds);
  w.field("pairs", static_cast<std::uint64_t>(report.result.pairs));
  w.field("tasks_executed",
          static_cast<std::uint64_t>(report.result.tasks_executed));
  w.field("local_pops", static_cast<std::uint64_t>(report.result.local_pops));
  w.field("steals", static_cast<std::uint64_t>(report.result.steals));
  w.field("queue_pushes",
          static_cast<std::uint64_t>(report.result.queue_pushes));
  w.field("queue_failed_pushes",
          static_cast<std::uint64_t>(report.result.queue_failed_pushes));
  w.field("queue_batches",
          static_cast<std::uint64_t>(report.result.queue_batches));
  w.field("queue_push_batches",
          static_cast<std::uint64_t>(report.result.queue_push_batches));
  w.field("queue_max_occupancy",
          static_cast<std::uint64_t>(report.result.queue_max_occupancy));
  w.field("backoff_sleeps",
          static_cast<std::uint64_t>(report.result.backoff_sleeps));
  w.field("task_retries",
          static_cast<std::uint64_t>(report.result.task_retries));
  w.field("task_aborts",
          static_cast<std::uint64_t>(report.result.task_aborts));
  w.end_object();

  // Plan provenance; emitted whenever the driver stamped a strategy.
  // Hand-built reports without one stay as-is so their goldens are
  // unchanged.
  if (!report.result.plan.strategy.empty()) {
    const engine::PlanInfo& plan = report.result.plan;
    w.begin_object("plan");
    w.field("strategy", plan.strategy);
    w.field("ratio", static_cast<std::uint64_t>(plan.ratio));
    w.field("batch_size", static_cast<std::uint64_t>(plan.batch_size));
    w.field("queue_capacity",
            static_cast<std::uint64_t>(plan.queue_capacity));
    w.field("pin_policy", plan.pin_policy);
    w.field("source",
            plan.source.empty() ? std::string("default") : plan.source);
    w.end_object();
  }
  // Memory outcome: always emitted, because peak_rss_bytes is stamped on
  // every run — the streaming path's flat-memory claim must be checkable
  // from any report.
  w.begin_object("memory");
  w.field("peak_rss_bytes",
          static_cast<std::uint64_t>(report.result.peak_rss_bytes));
  w.end_object();
  // Hot-path dispatch provenance (the map-kernel table).
  w.begin_object("dispatch");
  w.field("simd_path", report.result.dispatch.simd_path);
  w.field("isa", report.result.dispatch.isa);
  w.end_object();
  // Streaming-input outcome (RAMR_IO); omitted when the run was fed by a
  // materialized input so non-streaming reports gain only the "memory"
  // object above.
  if (report.result.io.enabled()) {
    const engine::IoStats& io = report.result.io;
    w.begin_object("io");
    w.field("mode", io.mode);
    w.field("source", io.source);
    w.field("bytes_read", io.bytes_read);
    w.field("windows", io.windows);
    w.field("window_bytes", io.window_bytes);
    w.field("depth", io.depth);
    w.field("io_stalls", io.io_stalls);
    w.field("map_waits", io.map_waits);
    w.field("io_retries", io.io_retries);
    w.field("carry_bytes", io.carry_bytes);
    w.end_object();
  }
  // Skew profile (RAMR_OBS=full); omitted when the profiler was off so
  // default reports are unchanged.
  if (report.result.skew.enabled) {
    const engine::SkewStats& skew = report.result.skew;
    w.begin_object("skew");
    w.field("map_imbalance", skew.map_imbalance);
    w.field("drain_imbalance", skew.drain_imbalance);
    w.field("straggler", skew.straggler);
    w.field("sampled", skew.sampled);
    w.field("ring_depth", skew.ring_depth);
    w.begin_array("hot_keys");
    for (const engine::SkewStats::HotKey& k : skew.hot_keys) {
      w.begin_object();
      w.field("key", k.key);
      w.field("est_count", k.est_count);
      w.field("share", k.share);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.begin_array("phases");
  for (const PhaseEntry& p : report.phases) {
    w.begin_object();
    w.field("phase", p.phase);
    w.field("pool", p.pool);
    w.field("source", p.source);
    w.field("seconds", p.seconds);
    w.field("instructions", p.counters.instructions);
    w.field("mem_stall_cycles", p.counters.mem_stall_cycles);
    w.field("resource_stall_cycles", p.counters.resource_stall_cycles);
    w.field("input_bytes", p.counters.input_bytes);
    w.field("ipb", p.counters.ipb());
    w.field("mspi", p.counters.mspi());
    w.field("rspi", p.counters.rspi());
    if (p.source == "pmu") {
      w.field("cycles", p.cycles);
      w.field("cycles_measured", p.cycles_measured);
      w.field("mem_stall_measured", p.mem_stall_measured);
      w.field("resource_stall_measured", p.resource_stall_measured);
    }
    w.end_object();
  }
  w.end_array();

  w.begin_object("metrics");
  w.begin_array("counters");
  for (const CounterSnapshot& c : report.metrics.counters) {
    w.begin_object();
    w.field("name", c.name);
    w.field("total", c.total);
    w.begin_array("per_slot");
    for (std::uint64_t v : c.per_slot) w.element(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.begin_array("gauges");
  for (const GaugeSnapshot& g : report.metrics.gauges) {
    w.begin_object();
    w.field("name", g.name);
    w.field("max", g.max);
    w.begin_array("per_slot");
    for (double v : g.per_slot) w.element(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.begin_array("histograms");
  for (const HistogramSnapshot& h : report.metrics.histograms) {
    w.begin_object();
    w.field("name", h.name);
    w.field("count", h.count);
    w.field("p50", h.quantile(0.50));
    w.field("p90", h.quantile(0.90));
    w.field("p99", h.quantile(0.99));
    w.field("max", h.quantile(1.0));
    // Sparse bucket listing: [bucket_index, count] for nonzero buckets.
    w.begin_array("buckets");
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_array();
      w.element(static_cast<std::uint64_t>(b));
      w.element(h.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.begin_array("series");
  for (const Sampler::Series& s : report.series) {
    w.begin_object();
    w.field("name", s.name);
    w.field("dropped", static_cast<std::uint64_t>(s.dropped));
    w.begin_array("points");
    for (const auto& [t, v] : s.points) {
      w.begin_array();
      w.element(t);
      w.element(v);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out << "\n";
}

void write_json_file(
    const std::string& path,
    const std::function<void(std::ostream&)>& content_writer) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  content_writer(out);
  out.flush();
  if (!out) throw Error("failed writing '" + path + "'");
}

std::string counters_json(
    const std::string& schema,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", schema);
  w.begin_object("counters");
  for (const auto& [name, value] : counters) w.field(name, value);
  w.end_object();
  w.end_object();
  os << "\n";
  return os.str();
}

}  // namespace ramr::telemetry
