// The execution models: Phoenix++ (fused map-combine) and RAMR (decoupled,
// pipelined) on a SimMachine.
//
// Modelling summary (constants and rationale in model.cpp):
//   * Per-thread cycles/byte = cpu (instructions / thread IPC) + memory
//     stalls + resource stalls, from perf::estimate_phase under the cache
//     shares implied by thread placement.
//   * SMT issue sharing: threads on one core share `core_issue`; a core's
//     compute demand beyond that capacity dilates every resident thread's
//     cpu component. This is where complementary (CPU-map + memory-combine)
//     placements win and identical fused threads lose.
//   * Fusion penalties (Phoenix++ only): interleaving the combine's
//     irregular container accesses and long-latency misses into the map
//     stream amplifies memory and resource stalls — the paper's Sec. IV-E
//     explanation of why stall-prone apps profit from decoupling.
//   * RAMR adds explicit queue costs: per-record push, per-batch pop
//     handshake amortised by the batch size, per-line producer-to-consumer
//     transfer priced by the pinning distance, an L1-spill penalty for
//     over-large batches, and a fill-idle penalty as the batch approaches
//     the queue capacity. Blocked producers under busy-wait steal issue
//     slots from co-located combiners; sleeping producers do not.
#pragma once

#include <cstddef>
#include <string>

#include "common/config.hpp"
#include "perf/counters.hpp"
#include "sim/machine.hpp"
#include "sim/workload.hpp"

namespace ramr::sim {

struct PhaseBreakdown {
  double split = 0.0;
  double map_combine = 0.0;
  double reduce = 0.0;
  double merge = 0.0;

  double total() const { return split + map_combine + reduce + merge; }
  double map_combine_fraction() const {
    const double t = total();
    return t > 0.0 ? map_combine / t : 0.0;
  }
};

// ---- Phoenix++ baseline -----------------------------------------------------

struct BaselineResult {
  PhaseBreakdown phases;
  double cycles_per_byte = 0.0;  // fused map-combine, post-contention
  perf::Counters counters;       // map-combine phase only (Fig. 10 metrics)
};

BaselineResult simulate_phoenix(const SimMachine& machine,
                                const SimWorkload& workload);

// ---- RAMR ---------------------------------------------------------------------

struct RamrConfig {
  std::size_t ratio = 2;  // mappers per combiner; pools sized to fill the machine
  std::size_t batch = 256;
  std::size_t queue_capacity = 5000;
  PinPolicy pin = PinPolicy::kRamrPaired;
  bool sleep_on_full = true;
};

struct RamrResult {
  PhaseBreakdown phases;
  std::size_t num_mappers = 0;
  std::size_t num_combiners = 0;
  double mapper_cycles_per_byte = 0.0;    // per mapper-stream byte
  double combiner_cycles_per_byte = 0.0;  // per group byte
  bool mapper_limited = true;             // which side bottlenecks the pipe
  double mean_comm_cycles_per_line = 0.0; // priced pinning distance
};

RamrResult simulate_ramr(const SimMachine& machine, const SimWorkload& workload,
                         const RamrConfig& config);

// Convenience for the figures: end-to-end speedup of RAMR over Phoenix++ on
// the same machine/workload (>1 means RAMR is faster).
double ramr_speedup(const SimMachine& machine, const SimWorkload& workload,
                    const RamrConfig& config);

// Sweeps ratio in {1,2,3,4} and returns the best-performing config for the
// workload (batch/queue untouched) — the paper tunes the ratio per app.
RamrConfig tuned_config(const SimMachine& machine, const SimWorkload& workload,
                        RamrConfig base);

}  // namespace ramr::sim
