// Tuning walkthrough: given a synthetic workload (CPU-intensive map,
// memory-intensive combine), use the platform simulator to pick the
// mapper:combiner ratio, then run the *real* runtime at that ratio and
// verify the result invariant — the workflow of the paper's Sec. III-C.
#include <iostream>

#include "core/runtime.hpp"
#include "sim/model.hpp"
#include "stats/table.hpp"
#include "synth/synth_app.hpp"
#include "topology/topology.hpp"

using namespace ramr;

int main() {
  synth::SynthParams params;
  params.map_kind = synth::WorkKind::kCpu;
  params.map_intensity = 32;
  params.combine_kind = synth::WorkKind::kMemory;
  params.combine_intensity = 4;
  params.elements = 50000;
  params.keys = 64;
  // 200 splits: enough for the adaptive controller's calibration budget,
  // so the default RAMR_ADAPT=probe decides this run.
  params.split_elements = 250;
  params.arena_bytes = 1 << 20;

  // --- 1. explore ratios on the modelled Haswell server -------------------
  const auto machine = sim::haswell();
  const auto workload = sim::synth_workload(params);
  std::cout << "workload: " << workload.name << "\n\n";
  stats::Table table({"ratio", "modelled time (ms)", "bottleneck"});
  std::size_t best_ratio = 1;
  double best_time = 1e300;
  for (std::size_t ratio : {1u,2u,3u,4u}) {
    sim::RamrConfig cfg;
    cfg.ratio = ratio;
    cfg.batch = 1000;
    const auto r = sim::simulate_ramr(machine, workload, cfg);
    table.add_row({std::to_string(ratio),
                   stats::Table::fmt(r.phases.total() * 1e3, 3),
                   r.mapper_limited ? "mappers" : "combiner"});
    if (r.phases.total() < best_time) {
      best_time = r.phases.total();
      best_ratio = ratio;
    }
  }
  table.print(std::cout);
  std::cout << "chosen ratio: " << best_ratio << ":1\n\n";

  // --- 2. run the real runtime with the chosen ratio ----------------------
  // Env knobs (RAMR_ADAPT, RAMR_RATIO, ...) layer on top of the modelled
  // choice. By default the online controller probes the modelled ratio
  // against fused and commits the winner (the CI adaptive-smoke step
  // validates the RAMR_ADAPT_REPORT JSON it emits); `RAMR_ADAPT=off
  // ./synthetic_tuning` runs the modelled plan as is.
  synth::SynthApp app;
  app.container_keys = params.keys;
  RuntimeConfig config;
  config.mapper_combiner_ratio = best_ratio;
  config.pin_policy = PinPolicy::kOsDefault;
  config.batch_size = 256;
  config = RuntimeConfig::from_env(config);
  core::Runtime<synth::SynthApp> runtime(topo::host(), config);
  const auto result = runtime.run(app, params);

  std::uint64_t payload = 0;
  for (const auto& [k, v] : result.pairs) payload += v.payload;
  const bool ok =
      payload == synth::synth_expected_payload_sum(params.elements);
  std::cout << "real run: " << result.timers.summary() << '\n'
            << "mappers=" << runtime.config().num_mappers
            << " combiners=" << runtime.config().num_combiners << '\n'
            << result.plan.summary() << '\n'
            << "payload invariant: " << (ok ? "OK" : "VIOLATED") << '\n';
  return ok ? 0 : 1;
}
