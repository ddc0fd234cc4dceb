// Suitability model: when does the decoupled pipelined strategy beat
// Phoenix-style fusion? (Paper Sec. IV-E, Fig. 10.)
//
// The paper's reading of Fig. 10: an application benefits from RAMR when
// its map/combine phase is *heavy enough* (instructions per input byte
// above a threshold — HG and LR are "too light" to amortize the queue
// traffic) AND *stall-prone* (memory/resource stalls per instruction —
// PCA has a high IPB but runs stall-free, so decoupling buys nothing).
// The metrics "are only meaningful comparatively", so the floors here are
// calibrated against the repo's own Fig. 10 reproduction
// (bench_fig10_suitability over the Haswell model) such that the paper's
// verdicts come out: KM/MM (and hashed WC) pipelined, HG/LR/PCA fused.
//
// Two rules:
//  * judge_empirical — the one the adaptive controller scores with, over
//    per-pool thread CPU time of its probe runs: cost per emitted record
//    stands in for IPB, and the combine pool's share of the CPU stands in
//    for the stall complementarity (a heavy combine side is exactly the
//    work the decoupled pool absorbs). CPU time, unlike wall-clock, is
//    workload-intrinsic, so the verdict is stable even on an
//    oversubscribed 1-core host where the probe runs time-slice;
//  * judge_counters — the paper's Fig. 10 rule over PMU (or modeled)
//    counters. Nothing in the runtime calls it; it stays as the rule the
//    simulator's Fig. 10a reproduction is checked against
//    (Suitability.Fig10aVerdictsMatchPaper).
#pragma once

#include <cstdint>
#include <string>

#include "perf/counters.hpp"

namespace ramr::adapt {

// Thresholds; defaults calibrated against the Fig. 10a reproduction.
struct SuitabilityModel {
  // Counter rule: pipelined iff ipb >= ipb_floor AND mspi+rspi >= stall_floor.
  double ipb_floor = 10.0;
  double stall_floor = 0.10;
  // Empirical rule: pipelined iff cpu-per-record >= intensity floor AND the
  // combine pool burns at least combine_share_floor of the total CPU.
  double cpu_per_record_floor_ns = 200.0;
  double combine_share_floor = 0.30;
};

struct Verdict {
  bool pipelined = false;
  // Continuous margin, > 1 favouring pipelined (product of the two rule
  // components, each clamped to [0, 4]); reported per candidate in the
  // adapt plan JSON.
  double score = 0.0;
  std::string reason;
};

// The Fig. 10 rule over one map/combine-phase counter set (input_bytes
// must be filled — IPB is instructions per input byte).
Verdict judge_counters(const SuitabilityModel& model,
                       const perf::Counters& map_combine);

// What a PMU-less probe run measures.
struct EmpiricalSample {
  double map_cpu_seconds = 0.0;
  double combine_cpu_seconds = 0.0;
  std::uint64_t records = 0;  // elements emitted through the rings
  double wall_seconds = 0.0;  // informational (reported, not scored)
};

Verdict judge_empirical(const SuitabilityModel& model,
                        const EmpiricalSample& sample);

}  // namespace ramr::adapt
