// The unified result of one MapReduce invocation under ANY runtime.
//
// Every coupling strategy (fused, pipelined, atomic-global) reports through
// this one type: phase timers, task/steal scheduling counters, and the
// pipeline queue statistics (zero for the strategies that have no queues).
// `mr::Result` and `mrphi::Runtime::Result` are aliases of this type, so
// results compare and print uniformly across the three architectures.
#pragma once

#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timing.hpp"

namespace ramr::engine {

// Streaming-input outcome of one run (RAMR_IO; see src/io/). An empty mode
// means the run was fed by a materialized input, not an IO-lane source —
// summary() and the run report then print nothing, keeping default output
// byte-identical.
struct IoStats {
  std::string mode;    // "" (off) | "mmap" | "direct"
  std::string source;  // actual source after capability fallback:
                       // "mmap" | "direct" | "buffered" | "gzip"
  std::uint64_t bytes_read = 0;    // fresh bytes the IO lane delivered
  std::uint64_t windows = 0;       // windows published as map tasks
  std::uint64_t window_bytes = 0;  // configured window size (RAMR_IO_WINDOW)
  std::uint64_t depth = 0;         // in-flight window budget (RAMR_IO_DEPTH)
  std::uint64_t io_stalls = 0;     // feeder waits for a free window slot
                                   // (map compute behind the IO lane)
  std::uint64_t map_waits = 0;     // mapper polls on an open-but-empty
                                   // queue (IO lane behind map compute)
  std::uint64_t io_retries = 0;    // transient read faults retried
  std::uint64_t carry_bytes = 0;   // record-boundary carry-over copied

  bool enabled() const { return !mode.empty(); }

  std::string summary() const {
    std::string s = "io=" + mode;
    if (source != mode && !source.empty()) s += "(" + source + ")";
    s += " bytes=" + std::to_string(bytes_read) +
         " windows=" + std::to_string(windows) +
         " window_bytes=" + std::to_string(window_bytes) +
         " depth=" + std::to_string(depth);
    if (io_stalls > 0) s += " io_stalls=" + std::to_string(io_stalls);
    if (map_waits > 0) s += " map_waits=" + std::to_string(map_waits);
    if (io_retries > 0) s += " io_retries=" + std::to_string(io_retries);
    if (carry_bytes > 0) s += " carry=" + std::to_string(carry_bytes);
    return s;
  }
};

// The execution plan a run actually used, and where it came from. Stamped
// by PhaseDriver::run from the resolved config + strategy; the adaptive
// controller overwrites `source` with "probe" or "cache" when it decided;
// the service scheduler stamps "degraded" on retries that run under a
// safer plan (see service/scheduler.hpp, the degradation ladder).
struct PlanInfo {
  std::string strategy;  // "fused" | "pipelined" | "atomic-global"
  std::size_t ratio = 0;
  std::size_t batch_size = 0;
  std::size_t queue_capacity = 0;
  std::string pin_policy;
  // Who chose the plan: "env" (pinned knobs), "cache" / "probe" (the
  // adaptive controller), "trait" (the app's kCombinesInMap trait picked
  // fused at compile time), "degraded" (a service retry ladder step) or
  // "default".
  std::string source;

  // True when something other than the built-in defaults chose the plan —
  // the summary() line only mentions the plan then, so default runs keep
  // their historical output byte-for-byte.
  bool decided() const { return !source.empty() && source != "default"; }

  std::string summary() const {
    std::string s = "plan=" + strategy + " src=" + source +
                    " ratio=" + std::to_string(ratio) +
                    " batch=" + std::to_string(batch_size);
    if (queue_capacity > 0) {
      s += " qcap=" + std::to_string(queue_capacity);
    }
    if (!pin_policy.empty()) s += " pin=" + pin_policy;
    return s;
  }
};

// Hot-path dispatch provenance of one run: the map-kernel table the apps
// called through (see src/simd/). Stamped on every run.
struct DispatchStats {
  std::string simd_path;  // "scalar" | "sse2" | "avx2"
  std::string isa;        // probed ISA tier

  std::string summary() const {
    return "dispatch: simd=" + simd_path + " isa=" + isa;
  }
};

// Straggler/skew profile of one run (RAMR_OBS=full; see
// src/engine/skew_profiler.hpp). enabled is false — and summary() / the
// run report print nothing — unless the profiler ran, keeping default
// output byte-identical.
struct SkewStats {
  struct HotKey {
    std::string key;           // printable form (truncated to 32 chars)
    std::uint64_t est_count;   // count-min estimate over sampled emits
    double share;              // est_count / sampled
  };

  bool enabled = false;
  double map_imbalance = 0.0;    // max/mean per-mapper busy time
  double drain_imbalance = 0.0;  // max/mean per-combiner drained elements
  std::string straggler;         // worker name with the worst busy time
  std::uint64_t sampled = 0;     // emissions the sketch actually saw
  std::uint64_t ring_depth = 0;  // deepest ring across combiners
  std::vector<HotKey> hot_keys;  // top-K, hottest first

  std::string summary() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "skew: map_imb=%.2f drain_imb=%.2f", map_imbalance,
                  drain_imbalance);
    std::string s = buf;
    if (!straggler.empty()) s += " straggler=" + straggler;
    if (!hot_keys.empty()) {
      std::snprintf(buf, sizeof(buf), " hot=%s(%.0f%%)",
                    hot_keys.front().key.c_str(),
                    100.0 * hot_keys.front().share);
      s += buf;
    }
    return s;
  }
};

template <typename K, typename V>
struct RunResult {
  // Key-sorted (key, combined value) pairs — the merge phase output.
  std::vector<std::pair<K, V>> pairs;

  // Wall-clock per phase (split / map-combine / reduce / merge) — the
  // quantities behind the paper's Fig. 1 breakdown.
  PhaseTimers timers;

  // Scheduling diagnostics.
  std::size_t tasks_executed = 0;
  std::size_t local_pops = 0;
  std::size_t steals = 0;

  // Pipeline diagnostics (nonzero only under the pipelined SPSC strategy).
  std::size_t queue_pushes = 0;
  std::size_t queue_failed_pushes = 0;
  std::size_t queue_batches = 0;
  std::size_t queue_push_batches = 0;   // producer-side batched publishes
  std::size_t queue_max_occupancy = 0;  // deepest any ring ever got

  // Blocking waits of mappers on full rings and of idle combiners
  // (pipelined strategy only; spsc::Doorbell waits that actually blocked).
  std::size_t backoff_sleeps = 0;

  // Task-level retry accounting: attempts re-executed after a transient
  // failure, and tasks abandoned after exhausting the retry budget.
  std::size_t task_retries = 0;
  std::size_t task_aborts = 0;

  // The plan this run executed under (see PlanInfo).
  PlanInfo plan;

  // Streaming-input stats; enabled() only when the run was fed by an
  // IO-lane source (RAMR_IO / PhaseDriver::run_stream).
  IoStats io;

  // Process-wide peak RSS (bytes) sampled as the run finishes — always
  // stamped (getrusage is one syscall) so the flat-memory claim of the
  // streaming path is checkable from the run report. Deliberately absent from summary(): it is monotonic across a
  // process, so the console line would drift between otherwise identical
  // runs; consumers read it from the report's "memory" object.
  std::size_t peak_rss_bytes = 0;

  // Straggler/skew profile; enabled only under RAMR_OBS=full.
  SkewStats skew;

  // Hot-path dispatch provenance (SIMD kernel path).
  DispatchStats dispatch;

  std::string summary() const {
    std::string s = timers.summary();
    s += " pairs=" + std::to_string(pairs.size());
    // Pipeline diagnostics, suppressed when zero (the non-queue strategies
    // and an uncontended pipelined run stay terse).
    if (queue_pushes > 0) s += " qpush=" + std::to_string(queue_pushes);
    if (queue_failed_pushes > 0) {
      s += " qfail=" + std::to_string(queue_failed_pushes);
      // The raw count is misleading once producers batch (one blocked
      // *block* retries as one failed push regardless of its size), so
      // report the rate over push attempts alongside it.
      const double attempts =
          static_cast<double>(queue_pushes + queue_failed_pushes);
      if (attempts > 0.0) {
        char rate[32];
        std::snprintf(rate, sizeof(rate), " qfail_rate=%.1f%%",
                      100.0 * static_cast<double>(queue_failed_pushes) /
                          attempts);
        s += rate;
      }
    }
    if (queue_batches > 0) s += " qbatch=" + std::to_string(queue_batches);
    if (queue_push_batches > 0) {
      s += " qpbatch=" + std::to_string(queue_push_batches);
    }
    if (queue_max_occupancy > 0) {
      s += " qmax=" + std::to_string(queue_max_occupancy);
    }
    if (backoff_sleeps > 0) s += " sleeps=" + std::to_string(backoff_sleeps);
    if (task_retries > 0) s += " retries=" + std::to_string(task_retries);
    if (task_aborts > 0) s += " aborts=" + std::to_string(task_aborts);
    // Plan provenance, suppressed for default-sourced plans so existing
    // bench/test output is unchanged when the controller never ran.
    if (plan.decided()) s += " " + plan.summary();
    // Streaming-IO stats only when an IO-lane source fed the run.
    if (io.enabled()) s += " " + io.summary();
    // Skew profile only under RAMR_OBS=full.
    if (skew.enabled) s += " " + skew.summary();
    s += " " + dispatch.summary();
    return s;
  }
};

}  // namespace ramr::engine
