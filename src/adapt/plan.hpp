// Execution-plan identity and the adapt decision record.
//
// A plan is cached per (app name x input-size bucket x topology hash): the
// suitability verdict depends on what the app does per record, how much
// input there is relative to fixed costs, and the machine shape — nothing
// else the controller can observe up front. Input sizes are bucketed by
// split-count power of two so "the same workload, a bit more data" reuses
// the cached plan while a 100x change re-probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/result.hpp"
#include "topology/topology.hpp"

namespace ramr::adapt {

struct PlanKey {
  std::string app;
  std::size_t size_bucket = 0;
  std::uint64_t topo_hash = 0;

  // Stable string identity used in the plan-cache JSON.
  std::string cache_key() const;
};

// floor(log2(num_splits)) + 1; 0 for an empty input.
std::size_t input_size_bucket(std::size_t num_splits);

// FNV-1a over the shape fields (name, logical CPUs, sockets, cores, SMT).
std::uint64_t topology_hash(const topo::Topology& topology);

// One probed candidate and how it scored.
struct CandidateScore {
  std::string label;     // "fused", "pipelined@2", ...
  std::string strategy;  // engine strategy kName
  std::size_t ratio = 0;
  double probe_seconds = 0.0;  // wall-clock of the calibration slice
  double score = 0.0;          // suitability margin (see adapt/suitability.hpp)
  bool pipelined_verdict = false;
  std::string reason;
};

// The controller's full decision: the committed plan plus every candidate
// it considered (surfaced in the adapt plan report and tests).
struct PlanDecision {
  engine::PlanInfo plan;
  std::vector<CandidateScore> candidates;
  std::size_t probe_splits_used = 0;  // input consumed by calibration
};

// Writes the `ramr-adapt-plan-v1` JSON document (RAMR_ADAPT_REPORT and the
// CI adaptive-smoke step consume this).
void write_plan_report(std::ostream& out, const PlanKey& key,
                       const PlanDecision& decision);

}  // namespace ramr::adapt
