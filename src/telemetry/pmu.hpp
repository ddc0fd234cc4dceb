// Hardware PMU backend: per-thread perf_event_open counters aggregated per
// pool, turning the paper's IPB/MSPI/RSPI from modeled into measured.
//
// The paper (Sec. IV-E) reads three hardware quantities over the
// map/combine phase: instructions, memory-stall cycles and resource-stall
// cycles. This backend opens per-thread counters (pid = worker tid,
// cpu = -1 so the count follows the thread across migrations) for:
//
//   instructions          PERF_COUNT_HW_INSTRUCTIONS
//   cycles                PERF_COUNT_HW_CPU_CYCLES
//   mem-stall cycles      PERF_COUNT_HW_STALLED_CYCLES_BACKEND — the
//                         generic backend-stall event; on the paper's
//                         workloads backend stalls are dominated by the
//                         L1/L2-miss stalls the paper's MSPI counts
//   resource-stall cycles raw RESOURCE_STALLS.ANY (event 0xa2, umask 0x01,
//                         x86 only) — full ROB / no RS entry / LSB full,
//                         exactly the paper's RSPI numerator
//
// Capability detection is per event and graceful: a kernel, container or
// perf_event_paranoid setting that refuses an event simply marks it
// unmeasured; if even the instructions counter cannot be opened the whole
// backend reports unavailable (with the errno-derived reason) and callers
// fall back to the analytic stall model (perf/stall_model.hpp), recording
// the active source in the run report. Nothing throws for a missing PMU.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace ramr::telemetry {

// The RAMR_PMU mode; parsed with the other knobs (common/config.hpp).
using ramr::PmuMode;

// One capability probe per process (cached): can we open an instructions
// counter on ourselves?
struct PmuAvailability {
  bool available = false;
  std::string reason;  // human-readable cause when unavailable
};

const PmuAvailability& pmu_probe();

// Counter values for one pool over one phase, with per-event validity (an
// event that could not be opened on any thread reports false).
struct PmuSample {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t mem_stall_cycles = 0;
  std::uint64_t resource_stall_cycles = 0;
  bool instructions_valid = false;
  bool cycles_valid = false;
  bool mem_stall_valid = false;
  bool resource_stall_valid = false;
};

// Per-thread counters for every thread of one pool. Construction opens
// whatever events the kernel permits for each tid; begin() resets and
// enables, end() disables and accumulates the deltas. A pool where no
// thread yielded an instructions counter reports measuring() == false and
// begin()/end() are no-ops.
class PoolPmu {
 public:
  explicit PoolPmu(const std::vector<std::int64_t>& tids);
  ~PoolPmu();

  PoolPmu(const PoolPmu&) = delete;
  PoolPmu& operator=(const PoolPmu&) = delete;

  bool measuring() const;

  void begin();
  PmuSample end();  // delta since the matching begin()

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ramr::telemetry
