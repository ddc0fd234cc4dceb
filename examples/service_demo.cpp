// Service mode end-to-end: a persistent service::Scheduler serving a stream
// of kmeans jobs (one Lloyd iteration per job) over warm pool sets, versus
// the cold-start baseline that builds a fresh Runtime per iteration.
//
// Also demonstrates multi-tenancy: two jobs admitted together run
// concurrently on disjoint leased core sets, and each gets its own report.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/kmeans.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "core/runtime.hpp"
#include "service/scheduler.hpp"
#include "stats/table.hpp"
#include "telemetry/metrics_export.hpp"
#include "topology/topology.hpp"

using namespace ramr;
using namespace ramr::apps;

namespace {

constexpr std::size_t kClusters = 8;
constexpr int kIterations = 6;
using App = KMeansApp<ContainerFlavor::kDefault>;

KmInput make_input() {
  KmInput input;
  input.points = make_points(120000, kClusters, /*seed=*/7);
  input.centroids = initial_centroids(input.points, kClusters);
  input.split_points = 8192;
  return input;
}

RuntimeConfig job_runtime_config() {
  RuntimeConfig config;
  config.mapper_combiner_ratio = 2;
  config.pin_policy = PinPolicy::kOsDefault;
  return config;
}

// ---- --report=<path> -------------------------------------------------------
// Writes the scheduler's live metrics snapshot to `path` (ramr-metrics-v1
// JSON, or Prometheus text when the path ends in ".prom") and, when the
// observability plane is on, the stitched service trace next to it.
void write_report(service::Scheduler& sched, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "report: cannot open " << path << '\n';
    return;
  }
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  out << (prom ? sched.metrics_text() : sched.metrics_json());
  std::cout << "report: wrote " << path << '\n';
}

// With RAMR_OBS=full, dump the stitched service trace for Perfetto.
void write_obs_trace(service::Scheduler& sched) {
  if (!sched.observability()) return;
  const std::string path = "ramr_service_trace.json";
  std::ofstream out(path);
  if (!out) return;
  sched.write_trace(out);
  std::cout << "obs: wrote " << path << '\n';
}

// Per-app EWMA/breaker breakdown from the same frame the exporters use.
void print_app_breakdown(service::Scheduler& sched) {
  const telemetry::ServiceMetricsFrame frame = sched.metrics_frame();
  if (frame.apps.empty()) return;
  constexpr std::size_t kMaxRows = 10;  // soak names every job uniquely
  std::cout << "per-app:\n";
  for (std::size_t i = 0; i < frame.apps.size() && i < kMaxRows; ++i) {
    const auto& app = frame.apps[i];
    std::cout << "  " << app.name << ": ewma="
              << stats::Table::fmt(app.ewma_seconds * 1e3, 2) << "ms samples="
              << app.samples << " breaker=" << app.breaker;
    if (app.consecutive_failures > 0) {
      std::cout << " consecutive_failures=" << app.consecutive_failures;
    }
    std::cout << '\n';
  }
  if (frame.apps.size() > kMaxRows) {
    std::cout << "  ... (" << frame.apps.size() - kMaxRows
              << " more apps)\n";
  }
}

double centroid_shift(const std::vector<KmPoint>& next,
                      const std::vector<KmPoint>& prev) {
  double shift = 0.0;
  for (std::size_t k = 0; k < next.size(); ++k) {
    for (std::size_t d = 0; d < kKmDim; ++d) {
      shift += std::abs(next[k].coord[d] - prev[k].coord[d]);
    }
  }
  return shift;
}

// ---- soak mode (--soak[=seconds]) ------------------------------------------
// A seeded, randomized fault-injected job stream for CI: kmeans jobs with a
// mix of per-job fault plans (transient map-task faults, emit stalls) and
// random client cancellations, on top of whatever scheduler-level
// job-boundary faults RAMR_FAULTS specifies, for the given wall-clock
// budget. At drain, every job must have reached a terminal status and the
// scheduler must hold zero cores and zero depot leases.
int run_soak(double budget_seconds, const std::string& report_path) {
  const std::size_t seed = env::get_uint("RAMR_SOAK_SEED", 1);
  const topo::Topology topo = topo::host();

  // Env-driven resilience knobs (RAMR_SERVICE_RETRIES, RAMR_FAULTS, ...),
  // with soak-friendly floors where the env left a feature off.
  service::Scheduler::Options opts = service::Scheduler::Options::from_env();
  opts.max_concurrent_jobs =
      std::max<std::size_t>(opts.max_concurrent_jobs, 2);
  opts.queue_depth = std::max<std::size_t>(opts.queue_depth, 16);
  if (opts.max_retries == 0) opts.max_retries = 3;
  service::Scheduler sched(topo, opts);

  App app;
  app.num_clusters = kClusters;
  KmInput input;
  input.points = make_points(20000, kClusters, /*seed=*/7);
  input.centroids = initial_centroids(input.points, kClusters);
  input.split_points = 2048;

  std::cout << "soak on " << topo.name() << ": budget=" << budget_seconds
            << "s seed=" << seed << " retries=" << opts.max_retries
            << " faults='" << opts.fault_spec << "'\n";

  Xoshiro256 rng(seed);
  std::deque<service::JobId> inflight;
  std::size_t submitted = 0;
  const auto t0 = now();
  while (seconds_between(t0, now()) < budget_seconds) {
    service::JobSpec spec;
    spec.name = "soak-" + std::to_string(submitted);
    spec.config = job_runtime_config();
    const double roll = rng.uniform();
    if (roll < 0.2) {
      // Transient map-task faults, absorbed by task-level retry.
      spec.config.fault_spec = "map_task=3,map_transient=1,map_fires=2";
      spec.config.max_task_retries = 3;
    } else if (roll < 0.3) {
      spec.config.fault_spec = "stall_emit=100,stall_ms=50";  // emit stall
    } else if (roll < 0.33) {
      // Impossible budget over a stalled emit: a deterministic deadline
      // abort (and, with RAMR_OBS=full, a post-mortem) even on fast hosts.
      spec.config.fault_spec = "stall_emit=100,stall_ms=50";
      spec.deadline_ms = 1;
    }
    auto [id, future] = sched.submit(spec, app, input);
    (void)future;
    ++submitted;
    if (roll >= 0.33 && roll < 0.38) sched.cancel(id);  // client gives up
    inflight.push_back(id);
    while (inflight.size() >= 8) {
      sched.wait(inflight.front());
      inflight.pop_front();
    }
  }

  std::size_t done = 0, failed = 0, cancelled = 0, rejected = 0, shed = 0;
  std::size_t non_terminal = 0;
  for (const service::JobReport& r : sched.drain()) {
    switch (r.status) {
      case service::JobStatus::kDone: ++done; break;
      case service::JobStatus::kFailed: ++failed; break;
      case service::JobStatus::kCancelled: ++cancelled; break;
      case service::JobStatus::kRejected: ++rejected; break;
      case service::JobStatus::kShed: ++shed; break;
      default: ++non_terminal; break;
    }
  }
  const std::size_t leaked = sched.cores().total() - sched.cores().available();
  const auto depot_stats = sched.depot().stats();
  std::cout << sched.stats().summary() << '\n'
            << "soak: submitted=" << submitted << " done=" << done
            << " failed=" << failed << " cancelled=" << cancelled
            << " rejected=" << rejected << " shed=" << shed
            << " non_terminal=" << non_terminal << '\n'
            << "soak: leaked_cores=" << leaked
            << " depot_leased=" << depot_stats.leased << '\n';
  if (!report_path.empty()) {
    print_app_breakdown(sched);
    write_report(sched, report_path);
  }
  write_obs_trace(sched);
  if (non_terminal != 0 || leaked != 0 || depot_stats.leased != 0) {
    std::cerr << "soak failed: non-terminal jobs or leaked leases\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool soak = false;
  double soak_seconds = 30.0;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--soak") {
      soak = true;
    } else if (arg.rfind("--soak=", 0) == 0) {
      soak = true;
      soak_seconds = std::atof(arg.c_str() + 7);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else {
      std::cerr << "usage: service_demo [--soak[=seconds]] [--report=path]\n";
      return 2;
    }
  }
  if (soak) return run_soak(soak_seconds, report_path);
  App app;
  app.num_clusters = kClusters;
  const topo::Topology topo = topo::host();
  std::cout << "service demo on " << topo.name() << " ("
            << topo.num_logical() << " logical CPUs)\n\n";

  // --- Cold baseline: a fresh Runtime (thread spawn + pin) per
  // iteration, the way a batch client would issue independent invocations.
  KmInput input = make_input();
  std::vector<double> cold_seconds;
  for (int i = 0; i < kIterations; ++i) {
    const auto t0 = now();
    core::Runtime<App> runtime(topo, job_runtime_config());
    const auto result = runtime.run(app, input);
    cold_seconds.push_back(seconds_between(t0, now()));
    input.centroids = km_next_centroids(result.pairs, input.centroids);
  }

  // --- Service mode: one persistent scheduler; each iteration is a job.
  // Identical pool shape per job, so every job after the first leases a
  // warm pool set from the depot instead of spinning up threads.
  input = make_input();
  // from_env() so the observability knobs (RAMR_OBS, RAMR_METRICS_PATH)
  // apply to the demo scheduler too; with no env set this is the default.
  service::Scheduler::Options opts = service::Scheduler::Options::from_env();
  opts.max_concurrent_jobs = 2;
  service::Scheduler sched(topo, opts);

  std::vector<double> warm_seconds;
  std::vector<KmPoint> prev = input.centroids;
  stats::Table table({"iteration", "mode", "seconds", "warm", "shift"});
  for (int i = 0; i < kIterations; ++i) {
    service::JobSpec spec;
    spec.name = "kmeans-iter-" + std::to_string(i);
    spec.config = job_runtime_config();
    const auto t0 = now();
    auto [id, future] = sched.submit(spec, app, input);
    const service::JobReport report = sched.wait(id);
    const double secs = seconds_between(t0, now());
    if (report.status != service::JobStatus::kDone) {
      std::cerr << "job failed: " << report.describe() << '\n';
      return 1;
    }
    warm_seconds.push_back(secs);
    input.centroids = km_next_centroids(future.get().pairs, input.centroids);
    table.add_row({std::to_string(i), "service",
                   stats::Table::fmt(secs * 1e3, 2) + "ms",
                   report.warm_pools ? "yes" : "no",
                   stats::Table::fmt(centroid_shift(input.centroids, prev),
                                     3)});
    prev = input.centroids;
  }
  table.print(std::cout);

  const auto avg = [](const std::vector<double>& v, std::size_t skip) {
    double sum = 0.0;
    for (std::size_t i = skip; i < v.size(); ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - skip);
  };
  // Skip the first iteration on both sides: it pays the cold build in
  // either mode; the steady-state gap is what the depot amortizes.
  const double cold = avg(cold_seconds, 1);
  const double warm = avg(warm_seconds, 1);
  std::cout << "\nper-iteration average (steady state):\n"
            << "  cold-start runtime : " << stats::Table::fmt(cold * 1e3, 2)
            << " ms\n"
            << "  service (warm pool): " << stats::Table::fmt(warm * 1e3, 2)
            << " ms  (" << stats::Table::fmt(cold / warm, 2) << "x)\n";
  const auto depot_stats = sched.depot().stats();
  std::cout << "  pool sets built=" << depot_stats.built
            << " reused=" << depot_stats.reused << "\n\n";

  // --- Multi-tenancy: two jobs admitted back-to-back run on disjoint
  // leased core sets (concurrently when the machine has cores for both).
  const KmInput shared_input = make_input();
  service::JobSpec spec;
  spec.config = job_runtime_config();
  spec.cores = std::max<std::size_t>(1, topo.num_logical() / 2);
  spec.name = "tenant-a";
  auto [id_a, future_a] = sched.submit(spec, app, shared_input);
  spec.name = "tenant-b";
  auto [id_b, future_b] = sched.submit(spec, app, shared_input);
  const service::JobReport ra = sched.wait(id_a);
  const service::JobReport rb = sched.wait(id_b);
  std::cout << "concurrent tenants:\n  " << ra.describe() << "\n  "
            << rb.describe() << '\n';
  if (ra.status != service::JobStatus::kDone ||
      rb.status != service::JobStatus::kDone) {
    return 1;
  }
  // Disjointness check: no OS CPU id in both leases. Only meaningful when
  // the machine can host both leases at once — on smaller machines the
  // registry serializes the tenants and the *same* cores serve each in
  // turn (disjoint in time, not in space).
  if (2 * spec.cores <= topo.num_logical()) {
    for (std::size_t id : ra.cores) {
      if (std::find(rb.cores.begin(), rb.cores.end(), id) != rb.cores.end()) {
        std::cerr << "core " << id << " leased to both tenants\n";
        return 1;
      }
    }
    std::cout << "  leases disjoint: yes\n";
  } else {
    std::cout << "  leases serialized (machine smaller than 2x"
              << spec.cores << " cores)\n";
  }
  if (!report_path.empty()) write_report(sched, report_path);
  write_obs_trace(sched);
  return 0;
}
