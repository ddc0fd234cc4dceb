// End-to-end benchmark harness for the RAMR runtime (see README.md).
//
// One process runs one workload. It builds the seeded inputs and their
// serial references before any timing, measures the runtimes for
// --seconds, checks every job's output outside the timed span, and prints
// one JSON document as its last line. run.py builds this binary against
// the installed ramr package and drives it.
//
//   ramr_e2e --workload wc-zipf|hg-pixels|pca-cov|svc-small --seed N
//            --seconds S --trace 0|1 [--scale D] [--dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (layer replays, runtime counters, span self times)
// and writes DIR/trace_<workload>.json.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/global_apps.hpp"
#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "apps/io.hpp"
#include "apps/pca.hpp"
#include "apps/streaming.hpp"
#include "apps/wordcount.hpp"
#include "common/config.hpp"
#include "core/runtime.hpp"
#include "io/chunk_source.hpp"
#include "io/io_config.hpp"
#include "measure.hpp"
#include "mrphi/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "service/scheduler.hpp"
#include "spsc/ring.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace {

using namespace ramr;
using e2e::Clock;
using e2e::median;
using e2e::seconds_between;
using Samples = std::map<std::string, std::vector<double>>;

constexpr apps::ContainerFlavor kDefault = apps::ContainerFlavor::kDefault;
using WcApp = apps::WordCountApp<kDefault>;
using HgApp = apps::HistogramApp<kDefault>;
using PcaApp = apps::PcaCovApp<kDefault>;

// Rounds (svc-small: jobs per client) run even past the deadline, so a
// short smoke run still yields every metric.
constexpr std::size_t kMinRounds = 3;
// setup_s: the median of kColdStarts cold starts of a runtime whose first
// job reads kSetupBytes of input (svc-small's job size). A full-size first
// job would make setup_s track job time, which drifts with the host far
// more than construction does; a 4 ms cold start needs many samples for a
// steady median.
constexpr std::size_t kColdStarts = 15;
constexpr std::size_t kSetupBytes = std::size_t{256} << 10;
// Repetitions of each layer replay, and service jobs per batch workload.
constexpr std::size_t kReplays = 5;
// Per-lane event capacity for traced RAMR jobs: large enough that the
// busiest combiner lane of a 16 MiB word count drops nothing.
constexpr std::size_t kRecorderLaneCapacity = std::size_t{1} << 21;

// Perfetto tracks of the traced run.
enum Lane : int {
  kLaneWorkload = 0,
  kLaneRamr,
  kLanePhoenix,
  kLaneMrphi,
  kLaneStream,
  kLaneReplay,
  kLaneService,
  kLaneClient0,  // svc-small client threads take kLaneClient0 + i
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t scale = 1;  // divides every input size (run.py --smoke)
  std::string dir = ".";  // input files and the trace file
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ramr_e2e: " << why
            << "\nusage: ramr_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale D] [--dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--scale") {
        a.scale = std::stoull(value);
      } else if (flag == "--dir") {
        a.dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.scale == 0 || !(a.seconds > 0.0)) usage("--scale and --seconds > 0");
  return a;
}

// Peak RSS of this process image: VmHWM of /proc/self/status. Not
// getrusage's ru_maxrss, which Linux carries over from the parent across
// fork and exec: under run.py it reads the Python parent's size whenever
// the workload stays below it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Process-wide state of one workload run.
struct Bench {
  explicit Bench(Args a) : args(std::move(a)), spans(args.trace) {}

  Args args;
  topo::Topology topo = topo::host();
  e2e::Report report;
  e2e::Spans spans;
  int root = -1;  // the workload span
  std::uint64_t next_job = 1;
  Samples layer;  // per-layer samples, reported as medians when traced

  void metric(const std::string& name, double value, const char* unit,
              const char* better = "lower") {
    report.metric(name, value, unit, better);
  }
  void layer_median(const std::string& name, const char* unit,
                    const char* better = "lower") {
    const auto it = layer.find(name);
    if (it == layer.end() || it->second.empty()) {
      throw std::runtime_error("no samples for per-layer metric " + name);
    }
    metric(name, median(it->second), unit, better);
  }
};

// The measured span of a run: the rounds or the service loop, after
// set-up and warm-up.
Clock::duration run_length(const Bench& b) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(b.args.seconds));
}

std::string write_input(const Bench& b, const std::string& name,
                        const void* data, std::size_t size) {
  const std::string path = b.args.dir + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) throw std::runtime_error("cannot write input " + path);
  return path;
}

template <typename Map>
auto sorted_pairs(const Map& m) {
  return std::vector<
      std::pair<typename Map::key_type, typename Map::mapped_type>>(m.begin(),
                                                                    m.end());
}

// ---- per-job accounting ------------------------------------------------------------

// RunResult counters of one RAMR job, into the per-layer samples.
template <typename R>
void add_counters(Samples& s, const R& r) {
  s["engine.split_s"].push_back(r.timers.seconds(Phase::kSplit));
  s["engine.map_combine_s"].push_back(r.timers.seconds(Phase::kMapCombine));
  s["engine.reduce_s"].push_back(r.timers.seconds(Phase::kReduce));
  s["engine.merge_s"].push_back(r.timers.seconds(Phase::kMerge));
  const double pushes = static_cast<double>(r.queue_pushes);
  const double failed = static_cast<double>(r.queue_failed_pushes);
  const double batches = static_cast<double>(r.queue_batches);
  s["spsc.pushes"].push_back(pushes);
  s["spsc.failed_pushes"].push_back(failed);
  s["spsc.push_success_ratio"].push_back(
      pushes + failed > 0 ? pushes / (pushes + failed) : 1.0);
  s["spsc.backoff_sleeps"].push_back(static_cast<double>(r.backoff_sleeps));
  s["spsc.drain_batches"].push_back(batches);
  s["spsc.elems_per_drain"].push_back(batches > 0 ? pushes / batches : 0.0);
  s["spsc.max_occupancy"].push_back(
      static_cast<double>(r.queue_max_occupancy));
  const double steals = static_cast<double>(r.steals);
  const double pops = static_cast<double>(r.local_pops);
  s["sched.tasks"].push_back(static_cast<double>(r.tasks_executed));
  s["sched.steals"].push_back(steals);
  s["sched.steal_ratio"].push_back(steals + pops > 0 ? steals / (steals + pops)
                                                     : 0.0);
}

// Phase timers of one Phoenix++ job, into the per-layer samples.
template <typename R>
void add_phoenix_timers(Samples& s, const R& r) {
  s["phoenix.map_combine_s"].push_back(r.timers.seconds(Phase::kMapCombine));
  s["phoenix.reduce_s"].push_back(r.timers.seconds(Phase::kReduce));
  s["phoenix.merge_s"].push_back(r.timers.seconds(Phase::kMerge));
}

// Combiner-lane event counts of a traced RAMR job.
void add_drain_events(Samples& s, const trace::Recorder& rec) {
  double active = 0.0;
  double idle = 0.0;
  for (std::size_t i = 0; i < rec.lane_count(); ++i) {
    for (const trace::Event& e : rec.lane_at(i).events()) {
      if (e.kind == trace::EventKind::kDrainActive) active += 1.0;
      if (e.kind == trace::EventKind::kDrainIdle) idle += 1.0;
    }
  }
  s["engine.drain_active"].push_back(active);
  s["engine.drain_idle"].push_back(idle);
  s["engine.idle_poll_ratio"].push_back(
      active + idle > 0 ? idle / (active + idle) : 0.0);
}

// A job span plus its engine phases, rebuilt back to back from the run's
// phase timers (the engine reports durations, not instants).
void trace_job(Bench& b, const char* runtime, int lane, std::uint64_t job,
               Clock::time_point t0, Clock::time_point t1,
               const PhaseTimers& timers) {
  const int id = b.spans.add("job", t0, t1, b.root, lane, job, runtime);
  if (id < 0) return;
  double t = b.spans.start(id);
  for (const Phase p : {Phase::kSplit, Phase::kMapCombine, Phase::kReduce,
                        Phase::kMerge}) {
    const double d = timers.seconds(p);
    if (d <= 0.0) continue;
    b.spans.add_at(std::string("engine.") + phase_name(p), t, t + d, id,
                   lane, job, runtime);
    t += d;
  }
}

// One checked job: its wall seconds, failed or not, and whether it ran and
// matched the reference.
struct Job {
  double seconds = 0.0;
  bool ok = false;
};

// Runs one job, checks its output against `ref` after the timed span and
// accounts it. Whatever `run` builds and destroys around the job (a cold
// runtime) is inside the span; the check is not.
template <typename Run, typename Ref, typename Observe>
Job checked_job(Bench& b, const char* runtime, int lane, Run&& run,
                const Ref& ref, Observe&& observe) {
  const std::uint64_t job = b.next_job++;
  const Clock::time_point t0 = Clock::now();
  try {
    const auto result = run();
    const Clock::time_point t1 = Clock::now();
    const bool ok = e2e::matches(result.pairs, ref);
    b.report.job(ok);
    if (!ok) {
      std::cerr << "job " << job << " (" << runtime
                << "): output differs from the serial reference\n";
      return {seconds_between(t0, t1), false};
    }
    trace_job(b, runtime, lane, job, t0, t1, result.timers);
    observe(result);
    return {seconds_between(t0, t1), true};
  } catch (const std::exception& e) {
    b.report.job(false);
    std::cerr << "job " << job << " (" << runtime << ") failed: " << e.what()
              << '\n';
    return {seconds_between(t0, Clock::now()), false};
  }
}

// setup_s: the median of kColdStarts cold starts. `run` constructs a
// runtime or scheduler, runs its first job and destroys it, all inside the
// timed span; the output check follows the span.
template <typename Ref, typename Run>
void cold_starts(Bench& b, const Ref& ref, Run&& run) {
  std::vector<double> cold;
  for (std::size_t r = 0; r < kColdStarts; ++r) {
    const Job j = checked_job(b, "cold", kLaneWorkload, run, ref,
                              [](const auto&) {});
    if (j.ok) cold.push_back(j.seconds);
  }
  b.metric("setup_s", median(cold), "s");
}

// ---- layer replays (traced run only) -----------------------------------------------

inline std::uint64_t fold(std::uint64_t x) { return x; }
inline std::uint64_t fold(double x) { return std::bit_cast<std::uint64_t>(x); }
inline std::uint64_t fold(std::string_view s) {
  return reinterpret_cast<std::uintptr_t>(s.data()) ^ s.size();
}

template <typename F>
void replay(Bench& b, const std::string& name, F&& f) {
  for (std::size_t r = 0; r < kReplays; ++r) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    b.layer[name].push_back(seconds_between(t0, t1));
    b.spans.add(name.substr(0, name.size() - 2), t0, t1, b.root, kLaneReplay);
  }
}

// Times each layer in isolation through its public API, on the workload's
// own inputs: the app's serial map (apps, simd), the container insert of
// the recorded emit stream (containers), that stream through one SPSC ring
// between two threads (spsc), reading the input files (io) and building a
// runtime (core).
template <typename App>
void layer_replays(Bench& b, const App& app,
                   const std::vector<const typename App::input_type*>& inputs,
                   const std::vector<std::string>& paths, bool text) {
  using K = mr::key_type_of<App>;
  using V = mr::value_type_of<App>;
  using Record = std::pair<K, V>;

  // The sink folds every key and value: a counting-only sink lets the
  // compiler delete the histogram and PCA map loops.
  std::uint64_t checksum = 0;
  replay(b, "apps.map_s", [&] {
    for (const auto* in : inputs) {
      for (std::size_t s = 0; s < app.num_splits(*in); ++s) {
        app.map(*in, s, [&](const auto& k, const auto& v) {
          checksum += fold(k) * 31 + fold(v);
        });
      }
    }
  });
  std::vector<Record> emits;
  for (const auto* in : inputs) {
    for (std::size_t s = 0; s < app.num_splits(*in); ++s) {
      app.map(*in, s, [&](const auto& k, const auto& v) {
        emits.emplace_back(K(k), V(v));
      });
    }
  }
  b.layer["apps.emits"].push_back(static_cast<double>(emits.size()));

  std::size_t keys = 0;
  replay(b, "containers.insert_s", [&] {
    auto container = app.make_container();
    for (const Record& e : emits) container.emit(e.first, e.second);
    keys = container.size();
  });
  b.layer["containers.keys"].push_back(static_cast<double>(keys));

  const RuntimeConfig defaults;
  replay(b, "spsc.transfer_s", [&] {
    spsc::Ring<Record> ring(defaults.queue_capacity);
    std::thread producer([&] {
      for (const Record& e : emits) {
        Record r = e;
        while (!ring.try_push(std::move(r))) std::this_thread::yield();
      }
      ring.close();
    });
    for (;;) {
      const std::size_t n = ring.consume_batch(
          [&](std::span<Record> batch) {
            for (const Record& e : batch) checksum ^= fold(e.first);
          },
          defaults.batch_size);
      if (n == 0) {
        if (ring.closed() && ring.empty()) break;
        std::this_thread::yield();
      }
    }
    producer.join();
  });
  b.report.info("replay_checksum", std::to_string(checksum));

  const io::IoConfig io_defaults;
  std::uint64_t bytes = 0, windows = 0, carry = 0;
  replay(b, "io.read_s", [&] {
    bytes = windows = carry = 0;
    for (const std::string& path : paths) {
      io::MmapChunkSource source(path, io_defaults.window_bytes,
                                 text ? io::text_record_break : nullptr);
      for (;;) {
        const io::WindowData w =
            source.next(nullptr, io_defaults.window_bytes);
        if (w.size == 0) break;
        ++windows;
        source.retire(w);
      }
      bytes += source.bytes_read();
      carry += source.carry_bytes();
    }
  });
  b.layer["io.bytes_read"].push_back(static_cast<double>(bytes));
  b.layer["io.windows"].push_back(static_cast<double>(windows));
  b.layer["io.carry_bytes"].push_back(static_cast<double>(carry));
  replay(b, "io.load_s", [&] {
    for (const std::string& path : paths) {
      if (text) {
        (void)apps::load_text_file(path);
      } else {
        (void)apps::load_binary_file(path);
      }
    }
  });

  for (std::size_t r = 0; r < kColdStarts; ++r) {
    std::optional<core::Runtime<App>> rt;
    const Clock::time_point t0 = Clock::now();
    rt.emplace(b.topo, RuntimeConfig{});
    const Clock::time_point t1 = Clock::now();
    b.layer["core.construct_s"].push_back(seconds_between(t0, t1));
    b.spans.add("core.construct", t0, t1, b.root, kLaneReplay);
  }
}

// ---- service jobs --------------------------------------------------------------------

// Submits one job running `app` over `in` and blocks until it is terminal.
// The body writes the run's result into `out`, which the client owns: the
// scheduler keeps every finished job's body, and a typed submit's future
// held there would keep every result alive for the rest of the run (about
// 0.2 MiB per svc-small job).
template <typename App>
service::JobReport run_svc(service::Scheduler& sched, const App& app,
                           const typename App::input_type& in,
                           std::optional<mr::result_of<App>>& out) {
  out.reset();
  const service::JobId id = sched.submit(
      service::JobSpec{},
      [&](service::JobContext& ctx) { out.emplace(ctx.run(app, in)); });
  return sched.wait(id);
}

// One service job as a client sees it.
struct SvcJob {
  bool ok = false;
  Clock::time_point submit{}, done{};  // done: the terminal report is back
  double queued = 0.0, run = 0.0, engine = 0.0;  // JobReport, result timers
  bool warm = false;
};

// Runs and checks one service job; the check follows `done`. RunResult
// counters go to `counters` when it is not null.
template <typename App, typename Ref>
SvcJob svc_job(service::Scheduler& sched, const App& app,
               const typename App::input_type& in, const Ref& ref,
               Samples* counters) {
  SvcJob j;
  std::optional<mr::result_of<App>> out;
  try {
    j.submit = Clock::now();
    const service::JobReport report = run_svc(sched, app, in, out);
    j.done = Clock::now();
    if (report.status != service::JobStatus::kDone || !out) {
      std::cerr << "service job " << report.id << ": "
                << service::to_string(report.status) << ' ' << report.error
                << '\n';
      return j;
    }
    j.ok = e2e::matches(out->pairs, ref);
    if (!j.ok) std::cerr << "service job " << report.id
                         << ": output differs from the serial reference\n";
    j.queued = report.queued_seconds;
    j.run = report.run_seconds;
    j.engine = out->timers.total();
    j.warm = report.warm_pools;
    if (counters != nullptr) add_counters(*counters, *out);
  } catch (const std::exception& e) {
    std::cerr << "service job failed: " << e.what() << '\n';
    j.ok = false;
  }
  return j;
}

// Accounts a finished service job. A traced job (lane >= 0) adds its
// service samples and has its spans rebuilt on `lane`: svc.job (submit to
// terminal report) > service.queued, service.run > service.engine. The
// self time of service.run is the attempt overhead (run - engine); that of
// svc.job is the handoff (round trip - queue - run).
void account_svc(Bench& b, const SvcJob& j, int lane, Samples& s) {
  b.report.job(j.ok);
  const std::uint64_t job = b.next_job++;
  if (!j.ok) return;
  s[lane < 0 ? "latency" : "latency.traced"].push_back(
      seconds_between(j.submit, j.done));
  if (lane < 0) return;
  s["service.queue_s_p50"].push_back(j.queued);
  s["service.run_s_p50"].push_back(j.run);
  s["service.engine_s_p50"].push_back(j.engine);
  s["service.warm_ratio"].push_back(j.warm ? 1.0 : 0.0);
  const int id = b.spans.add("svc.job", j.submit, j.done, b.root, lane, job,
                             "service");
  if (id < 0) return;
  const double t0 = b.spans.start(id);
  b.spans.add_at("service.queued", t0, t0 + j.queued, id, lane, job);
  const int run = b.spans.add_at("service.run", t0 + j.queued,
                                 t0 + j.queued + j.run, id, lane, job);
  b.spans.add_at("service.engine", t0 + j.queued, t0 + j.queued + j.engine,
                 run, lane, job);
}

void report_service_layer(Bench& b, Samples& s, service::Scheduler& sched) {
  const auto self = b.spans.self_seconds();
  b.layer["service.attempt_overhead_s_p50"] = self.at("service.run");
  b.layer["service.handoff_s_p50"] = self.at("svc.job");
  for (const char* name :
       {"service.queue_s_p50", "service.run_s_p50", "service.engine_s_p50"}) {
    b.layer[name] = s[name];
  }
  b.layer["service.warm_ratio"] = s["service.warm_ratio"];
  const engine::PoolDepot::Stats depot = sched.depot().stats();
  b.layer["service.depot_built"] = {static_cast<double>(depot.built)};
  b.layer["service.depot_reused"] = {static_cast<double>(depot.reused)};
}

// ---- batch workloads -----------------------------------------------------------------

// One runtime measured in a batch workload. job(traced) runs one checked
// job; only the RAMR contender attaches a recorder when traced is true.
struct Contender {
  using Run = std::function<Job(bool traced)>;
  Contender(std::string n, Run r) : name(std::move(n)), job(std::move(r)) {}

  std::string name;
  Run job;
  std::vector<double> seconds;         // correct untraced jobs
  std::vector<double> traced_seconds;  // correct traced RAMR jobs
  double busy = 0.0;                   // every untraced job, failed included
};

// Rounds of one job per contender, rotating which goes first, until the
// deadline. Two untimed warm-up rounds first let caches fill and lazy
// set-up finish. Returns the per-round Phoenix/RAMR time ratios.
std::vector<double> run_rounds(Bench& b, std::vector<Contender>& cs) {
  for (int r = 0; r < 2; ++r) {
    for (Contender& c : cs) (void)c.job(false);
  }
  const Clock::time_point deadline = Clock::now() + run_length(b);
  std::vector<double> ratios;
  std::size_t rounds = 0;
  for (; rounds < kMinRounds || Clock::now() < deadline; ++rounds) {
    std::map<std::string, double> took;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      Contender& c = cs[(rounds + k) % cs.size()];
      const bool traced = b.args.trace && c.name == "ramr" && rounds % 2 == 1;
      const Job j = c.job(traced);
      if (!traced) c.busy += j.seconds;
      if (!j.ok) continue;
      (traced ? c.traced_seconds : c.seconds).push_back(j.seconds);
      if (!traced) took[c.name] = j.seconds;
    }
    if (took.count("ramr") != 0 && took.count("phoenix") != 0) {
      ratios.push_back(took["phoenix"] / took["ramr"]);
    }
  }
  b.report.info("rounds", std::to_string(rounds));
  for (const Contender& c : cs) {
    b.report.info("samples." + c.name, std::to_string(c.seconds.size()));
  }
  return ratios;
}

// Key-sorted serial reference of an app's output.
template <typename App>
using Ref =
    std::vector<std::pair<mr::key_type_of<App>, mr::value_type_of<App>>>;

template <typename App>
struct BatchSpec {
  const App& app;
  const typename App::input_type& input;
  Ref<App> ref;
  const typename App::input_type& setup_input;  // kSetupBytes of input
  Ref<App> setup_ref;
  std::string path;  // the input written to a file (io replays)
  bool text;
};

// Measures RAMR and Phoenix++ (plus `extra` contenders) on one input. The
// untraced run reports the end-to-end metrics; the traced run replays each
// layer, then alternates traced and untraced RAMR jobs.
template <typename App>
void run_batch(Bench& b, const BatchSpec<App>& w,
               std::vector<Contender> extra) {
  const auto& ref = w.ref;
  if (b.args.trace) {
    layer_replays(b, w.app, {&w.input}, {w.path}, w.text);
  } else {
    cold_starts(b, w.setup_ref, [&] {
      core::Runtime<App> rt(b.topo, RuntimeConfig{});
      return rt.run(w.app, w.setup_input);
    });
  }

  core::Runtime<App> ramr(b.topo, RuntimeConfig{});
  phoenix::Runtime<App> phx(b.topo);
  b.report.info("ramr_config", ramr.config().summary());
  bool described = false;
  std::vector<Contender> cs;
  cs.push_back({"ramr", [&](bool traced) {
                  std::optional<trace::Recorder> rec;
                  if (traced) rec.emplace(kRecorderLaneCapacity);
                  ramr.set_recorder(rec ? &*rec : nullptr);
                  auto s = checked_job(
                      b, "ramr", kLaneRamr,
                      [&] { return ramr.run(w.app, w.input); }, ref,
                      [&](const auto& r) {
                        add_counters(b.layer, r);
                        if (rec) add_drain_events(b.layer, *rec);
                        if (!described) {
                          described = true;
                          b.report.info("plan", r.plan.summary());
                          b.report.info("dispatch", r.dispatch.summary());
                          b.report.info("queue_summary", r.summary());
                        }
                      });
                  ramr.set_recorder(nullptr);
                  return s;
                }});
  cs.push_back({"phoenix", [&](bool) {
                  return checked_job(
                      b, "phoenix", kLanePhoenix,
                      [&] { return phx.run(w.app, w.input); }, ref,
                      [&](const auto& r) { add_phoenix_timers(b.layer, r); });
                }});
  for (Contender& c : extra) cs.push_back(std::move(c));

  const std::vector<double> ratios = run_rounds(b, cs);
  const Contender& r = cs[0];
  if (b.args.trace) {
    // Service jobs over this workload's input: the service layer's fixed
    // costs on a large job (svc-small measures them on small ones).
    service::Scheduler sched(b.topo);
    Samples s;
    for (std::size_t i = 0; i < kReplays; ++i) {
      account_svc(b, svc_job(sched, w.app, w.input, ref, nullptr),
                  kLaneService, s);
    }
    report_service_layer(b, s, sched);
    b.metric("trace_overhead",
             median(r.traced_seconds) / median(r.seconds) - 1.0, "ratio");
    return;
  }
  b.metric("job_s_p50", median(r.seconds), "s");
  b.metric("job_s_p90", e2e::quantile(r.seconds, 0.9), "s");
  b.metric("phoenix_job_s_p50", median(cs[1].seconds), "s");
  b.metric("speedup_vs_phoenix", median(ratios), "x", "higher");
  // One client running RAMR jobs back to back: correct jobs per second of
  // the time RAMR ran, failed jobs' time included.
  b.metric("goodput_jobs_s", static_cast<double>(r.seconds.size()) / r.busy,
           "jobs/s", "higher");
  for (std::size_t i = 2; i < cs.size(); ++i) {
    b.metric(cs[i].name + "_job_s_p50", median(cs[i].seconds), "s");
  }
}

void wc_zipf(Bench& b) {
  // The paper's heavy case: a tokenizing map feeding a hash-table combine.
  WcApp app;
  app.max_distinct_words = 32768;
  const apps::TextInput in{
      apps::make_text((std::size_t{16} << 20) / b.args.scale, 20000,
                      b.args.seed),
      64 * 1024};
  const apps::TextInput setup{in.text.substr(0, kSetupBytes / b.args.scale),
                              in.split_bytes};
  const BatchSpec<WcApp> w{app,
                           in,
                           sorted_pairs(apps::wordcount_reference(in)),
                           setup,
                           sorted_pairs(apps::wordcount_reference(setup)),
                           write_input(b, "wc-zipf.txt", in.text.data(),
                                       in.text.size()),
                           true};
  // Streamed RAMR over the same text as a file: the io/ path end to end.
  apps::StreamOptions sopts;
  sopts.io.mode = io::IoMode::kMmap;
  sopts.split_bytes = in.split_bytes;
  sopts.max_distinct_words = app.max_distinct_words;
  std::vector<Contender> extra;
  extra.push_back({"stream", [&](bool) {
                     return checked_job(
                         b, "stream", kLaneStream,
                         [&] {
                           return apps::run_wordcount_stream(w.path, sopts);
                         },
                         w.ref, [&](const auto& r) {
                           b.layer["io.io_stalls"].push_back(
                               static_cast<double>(r.io.io_stalls));
                           b.layer["io.map_waits"].push_back(
                               static_cast<double>(r.io.map_waits));
                         });
                   }});
  run_batch(b, w, std::move(extra));
}

void hg_pixels(Bench& b) {
  // The paper's light case: one record per input byte into 768 bins, so
  // the emit/queue path does nearly all the work.
  const HgApp app;
  apps::PixelInput in;
  in.bytes = apps::make_pixels((std::size_t{4} << 20) / b.args.scale,
                               b.args.seed);
  apps::PixelInput setup;
  setup.bytes.assign(in.bytes.begin(),
                     in.bytes.begin() + kSetupBytes / b.args.scale);
  const BatchSpec<HgApp> w{app,
                           in,
                           sorted_pairs(apps::histogram_reference(in)),
                           setup,
                           sorted_pairs(apps::histogram_reference(setup)),
                           write_input(b, "hg-pixels.bin", in.bytes.data(),
                                       in.bytes.size()),
                           false};
  const apps::HistogramGlobalApp global{app};
  mrphi::Runtime<apps::HistogramGlobalApp> mrphi(b.topo);
  std::vector<Contender> extra;
  extra.push_back({"mrphi", [&](bool) {
                     return checked_job(
                         b, "mrphi", kLaneMrphi,
                         [&] { return mrphi.run(global, in); }, w.ref,
                         [&](const auto& r) {
                           b.layer["mrphi.map_combine_s"].push_back(
                               r.timers.seconds(Phase::kMapCombine));
                         });
                   }});
  run_batch(b, w, std::move(extra));
}

void pca_cov(Bench& b) {
  // Map-bound: centered dot products into a fixed array; the rings never
  // fill, so queue and container changes should not move it.
  const auto make_input = [&](std::size_t cols) {
    apps::PcaInput in;
    in.matrix = apps::make_matrix(256, std::max<std::size_t>(64, cols),
                                  b.args.seed);
    in.row_means = apps::pca_row_means(in.matrix);
    return in;
  };
  const apps::PcaInput in = make_input(2048 / b.args.scale);
  // 256 rows x 128 columns of doubles: kSetupBytes.
  const apps::PcaInput setup = make_input(128 / b.args.scale);
  PcaApp app;
  app.rows = in.matrix.rows;
  const BatchSpec<PcaApp> w{app,
                            in,
                            sorted_pairs(apps::pca_cov_reference(in)),
                            setup,
                            sorted_pairs(apps::pca_cov_reference(setup)),
                            write_input(b, "pca-cov.bin",
                                        in.matrix.data.data(),
                                        in.matrix.data.size() * sizeof(double)),
                            false};
  run_batch(b, w, {});
}

// ---- svc-small -------------------------------------------------------------------------

// Per-job fixed costs: a closed loop of two clients, each submitting a
// word-count job over one of eight small texts and waiting for it to end
// before submitting the next, steadily until the deadline.
void svc_small(Bench& b) {
  constexpr std::size_t kTexts = 8;
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kWarmJobs = 16;  // per client, before the measured loop
  WcApp app;
  app.max_distinct_words = 32768;
  std::vector<apps::TextInput> texts;
  std::vector<std::vector<std::pair<std::string_view, std::uint64_t>>> refs;
  std::vector<std::string> paths;
  texts.reserve(kTexts);
  for (std::size_t i = 0; i < kTexts; ++i) {
    texts.push_back({apps::make_text((std::size_t{256} << 10) / b.args.scale,
                                     20000, b.args.seed * kTexts + i),
                     64 * 1024});
    refs.push_back(sorted_pairs(apps::wordcount_reference(texts.back())));
    paths.push_back(write_input(b, "svc-small-" + std::to_string(i) + ".txt",
                                texts.back().text.data(),
                                texts.back().text.size()));
  }

  if (b.args.trace) {
    std::vector<const apps::TextInput*> inputs;
    for (const auto& t : texts) inputs.push_back(&t);
    layer_replays(b, app, inputs, paths, true);
    // Service jobs cannot take a recorder, so the combiner-lane events of
    // this job shape come from direct RAMR runs of the same texts, and the
    // Phoenix++ phase timers from direct Phoenix++ runs.
    core::Runtime<WcApp> rt(b.topo, RuntimeConfig{});
    phoenix::Runtime<WcApp> phx(b.topo);
    for (std::size_t i = 0; i < kTexts; ++i) {
      trace::Recorder rec(kRecorderLaneCapacity);
      rt.set_recorder(&rec);
      (void)checked_job(
          b, "ramr", kLaneRamr, [&] { return rt.run(app, texts[i]); },
          refs[i], [&](const auto&) { add_drain_events(b.layer, rec); });
      rt.set_recorder(nullptr);
      (void)checked_job(
          b, "phoenix", kLanePhoenix, [&] { return phx.run(app, texts[i]); },
          refs[i], [&](const auto& r) { add_phoenix_timers(b.layer, r); });
    }
  } else {
    cold_starts(b, refs[0], [&] {
      std::optional<mr::result_of<WcApp>> out;
      service::Scheduler sched(b.topo);
      const service::JobReport r = run_svc(sched, app, texts[0], out);
      if (r.status != service::JobStatus::kDone || !out) {
        throw std::runtime_error(std::string("cold service job ") +
                                 service::to_string(r.status) + " " + r.error);
      }
      return std::move(*out);
    });
  }

  service::Scheduler sched(b.topo);
  b.report.info("ramr_config", RuntimeConfig{}
                                   .resolved(sched.fair_share_cores())
                                   .summary());
  b.report.info("service", "max_concurrent_jobs=" +
                               std::to_string(sched.max_concurrent_jobs()) +
                               " fair_share_cores=" +
                               std::to_string(sched.fair_share_cores()));

  // Runs both clients until more(k) is false for the job index k, then
  // accounts every job. In the traced run every other measured job of each
  // client is traced (counters and spans), and the rest give
  // trace_overhead's base.
  Samples svc;
  std::size_t ok = 0;
  const auto run_clients = [&](bool measured, auto&& more) {
    std::vector<std::vector<SvcJob>> jobs(kClients);
    std::vector<Samples> counters(kClients);
    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t k = 0; more(k); ++k) {
            const std::size_t t = (c * 5 + k * 3) % kTexts;
            const bool traced = measured && b.args.trace && k % 2 == 1;
            jobs[c].push_back(svc_job(sched, app, texts[t], refs[t],
                                      traced ? &counters[c] : nullptr));
          }
        });
      }
    }
    svc.clear();
    ok = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t k = 0; k < jobs[c].size(); ++k) {
        const bool traced = measured && b.args.trace && k % 2 == 1;
        ok += jobs[c][k].ok ? 1 : 0;
        account_svc(b, jobs[c][k],
                    traced ? kLaneClient0 + static_cast<int>(c) : -1, svc);
      }
      for (auto& [name, v] : counters[c]) {
        b.layer[name].insert(b.layer[name].end(), v.begin(), v.end());
      }
    }
  };

  // Warm-up: depot pool sets, caches.
  run_clients(false, [&](std::size_t k) { return k < kWarmJobs; });
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + run_length(b);
  run_clients(true, [&](std::size_t k) {
    return k < kMinRounds || Clock::now() < deadline;
  });
  const double span = seconds_between(t0, Clock::now());
  b.report.info("samples.service", std::to_string(ok));

  if (b.args.trace) {
    report_service_layer(b, svc, sched);
    b.metric("trace_overhead",
             median(svc["latency.traced"]) / median(svc["latency"]) - 1.0,
             "ratio");
    return;
  }
  b.metric("job_s_p50", median(svc["latency"]), "s");
  b.metric("job_s_p90", e2e::quantile(svc["latency"], 0.9), "s");
  // Correct jobs per second of the loop's wall time. Each client checks a
  // job's output before it submits the next, so the check is its think
  // time.
  b.metric("goodput_jobs_s", static_cast<double>(ok) / span, "jobs/s",
           "higher");
}

// Per-layer metrics of the traced run: medians of the samples gathered
// from replays, RunResult counters, recorder events and span self times.
void report_layers(Bench& b) {
  for (const char* name :
       {"apps.map_s", "containers.insert_s", "spsc.transfer_s",
        "engine.split_s", "engine.map_combine_s", "engine.reduce_s",
        "engine.merge_s", "core.construct_s", "phoenix.map_combine_s",
        "phoenix.reduce_s", "phoenix.merge_s", "io.read_s", "io.load_s",
        "service.queue_s_p50", "service.run_s_p50", "service.engine_s_p50",
        "service.attempt_overhead_s_p50", "service.handoff_s_p50"}) {
    b.layer_median(name, "s");
  }
  for (const char* name :
       {"apps.emits", "containers.keys", "spsc.pushes", "spsc.failed_pushes",
        "spsc.backoff_sleeps", "spsc.drain_batches", "spsc.max_occupancy",
        "engine.drain_active", "engine.drain_idle", "sched.tasks",
        "sched.steals", "io.bytes_read", "io.windows", "io.carry_bytes",
        "service.depot_built"}) {
    b.layer_median(name, "count");
  }
  b.layer_median("spsc.push_success_ratio", "ratio", "higher");
  b.layer_median("spsc.elems_per_drain", "count", "higher");
  b.layer_median("engine.idle_poll_ratio", "ratio");
  b.layer_median("sched.steal_ratio", "ratio");
  b.layer_median("service.warm_ratio", "ratio", "higher");
  b.layer_median("service.depot_reused", "count", "higher");
  // Layers only some workloads have: MRPhi (hg-pixels) and the streamed
  // run's IO-lane counters (wc-zipf).
  if (b.layer.count("mrphi.map_combine_s") != 0) {
    b.layer_median("mrphi.map_combine_s", "s");
  }
  for (const char* name : {"io.io_stalls", "io.map_waits"}) {
    if (b.layer.count(name) != 0) b.layer_median(name, "count");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Bench b(parse_args(argc, argv));
  const std::map<std::string, void (*)(Bench&)> workloads = {
      {"wc-zipf", wc_zipf},
      {"hg-pixels", hg_pixels},
      {"pca-cov", pca_cov},
      {"svc-small", svc_small}};
  const auto it = workloads.find(b.args.workload);
  if (it == workloads.end()) usage("unknown workload " + b.args.workload);
  b.report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  b.report.info("topology", b.topo.summary());
  try {
    b.spans.name_lane(kLaneWorkload, "workload");
    b.spans.name_lane(kLaneRamr, "ramr jobs");
    b.spans.name_lane(kLanePhoenix, "phoenix jobs");
    b.spans.name_lane(kLaneMrphi, "mrphi jobs");
    b.spans.name_lane(kLaneStream, "stream jobs");
    b.spans.name_lane(kLaneReplay, "layer replays");
    b.spans.name_lane(kLaneService, "service jobs");
    b.spans.name_lane(kLaneClient0, "client 0");
    b.spans.name_lane(kLaneClient0 + 1, "client 1");
    const Clock::time_point t0 = Clock::now();
    b.root = b.spans.add(b.args.workload, t0, t0, -1, kLaneWorkload);
    it->second(b);
    if (b.args.trace) {
      b.spans.close(b.root, Clock::now());
      report_layers(b);
      std::string self;
      for (const auto& [name, v] : b.spans.self_seconds()) {
        self += name + "=" + telemetry::JsonWriter::number(median(v)) + " ";
      }
      b.report.info("self_s_p50", self);
      const std::string path =
          b.args.dir + "/trace_" + b.args.workload + ".json";
      b.spans.write_chrome(path);
      b.report.info("trace_file", path);
    } else {
      b.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    }
  } catch (const std::exception& e) {
    std::cerr << "ramr_e2e: " << b.args.workload << ": " << e.what() << '\n';
    b.report.job(false);
  }
  b.report.write(std::cout);
  return b.report.failed() == 0 ? 0 : 1;
}
