// Adaptive controller walkthrough: the same workload run twice through the
// online autotuner (RAMR_ADAPT=probe, the default), with the plan cache in a
// file, so the warm run is served across calls.
//
// Cold run: the plan cache is empty, so the controller spends a bounded
// calibration slice of the real input probing fused vs. pipelined
// candidates, commits the winner (plan source "probe"), and persists it.
// Warm run: the cached plan is reused without probing (plan source
// "cache"). Both runs print their plan provenance, and the cold run dumps
// the ramr-adapt-plan-v1 report with the per-candidate scores.
//
// See docs/TUNING.md for the full precedence story
// (explicit env > cache > probe > defaults).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "adapt/controller.hpp"
#include "core/runtime.hpp"
#include "synth/synth_app.hpp"
#include "topology/topology.hpp"

using namespace ramr;

namespace {

// One combine-heavy synthetic workload: cheap map, expensive combine — the
// shape the paper's Fig. 10 marks as pipeline-friendly.
synth::SynthParams demo_params() {
  synth::SynthParams params;
  params.map_kind = synth::WorkKind::kCpu;
  params.map_intensity = 40;
  params.combine_kind = synth::WorkKind::kCpu;
  params.combine_intensity = 1200;
  params.elements = 6000;
  params.keys = 32;
  params.split_elements = 24;  // 250 splits: plenty of probe budget
  return params;
}

bool run_once(const char* label, RuntimeConfig config,
              const std::string& report_path) {
  const synth::SynthParams params = demo_params();
  synth::SynthApp app;
  app.container_keys = params.keys;

  config.adapt_report_path = report_path;
  const auto result = adapt::run_adaptive(topo::host(), config, app, params);

  std::uint64_t payload = 0;
  for (const auto& [k, v] : result.pairs) payload += v.payload;
  const bool ok =
      payload == synth::synth_expected_payload_sum(params.elements);

  std::cout << label << ": " << result.plan.summary() << '\n'
            << "  " << result.timers.summary() << '\n'
            << "  payload invariant: " << (ok ? "OK" : "VIOLATED") << '\n';
  return ok;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  const std::string cache_path = (dir / "ramr_adaptive_demo_cache.json").string();
  const std::string report_path = (dir / "ramr_adaptive_demo_plan.json").string();
  fs::remove(cache_path);  // guarantee the first run really is cold

  RuntimeConfig config;
  config.plan_cache_path = cache_path;
  config.pin_policy = PinPolicy::kOsDefault;
  config.num_mappers = 2;
  config.num_combiners = 1;

  std::cout << "plan cache: " << cache_path << "\n\n";
  const bool cold_ok = run_once("cold run (expect src=probe)", config,
                                report_path);

  std::cout << "\nplan report (" << report_path << "):\n";
  std::ifstream report(report_path);
  std::cout << report.rdbuf() << "\n\n";

  const bool warm_ok = run_once("warm run (expect src=cache)", config,
                                /*report_path=*/"");
  return cold_ok && warm_ok ? 0 : 1;
}
