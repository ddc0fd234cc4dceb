// Visualising the map/combine overlap: run Word Count under RAMR with the
// trace recorder attached and render the per-thread timeline — mapper lanes
// ('#' = executing a task) and combiner lanes ('#' = consuming batches)
// should be active *simultaneously*, which is the whole point of the
// decoupled architecture.
//
// With RAMR_OBS=metrics the run additionally writes two artifacts to the
// working directory (see docs/OBSERVABILITY.md):
//   ramr_trace.json       Chrome trace-event JSON — open in Perfetto or
//                         chrome://tracing for an interactive timeline
//   ramr_run_report.json  structured run report with per-phase IPB/MSPI/
//                         RSPI (hardware PMU counters where the kernel
//                         grants them, the analytic stall model otherwise)
#include <iostream>

#include "apps/inputs.hpp"
#include "apps/suite.hpp"
#include "apps/wordcount.hpp"
#include "core/runtime.hpp"
#include "perf/profiles.hpp"
#include "perf/stall_model.hpp"
#include "telemetry/export.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

using namespace ramr;

int main() {
  apps::TextInput input{apps::make_text(2 << 20, 400, 5), 32 * 1024};
  constexpr auto kFlavor = apps::ContainerFlavor::kDefault;
  const apps::WordCountApp<kFlavor> app;

  RuntimeConfig config;
  config.num_mappers = 2;
  config.num_combiners = 2;
  config.pin_policy = PinPolicy::kOsDefault;
  config.batch_size = 128;
  // Honour the RAMR_* env knobs (notably RAMR_OBS / RAMR_PMU /
  // RAMR_SAMPLE_US) on top of the defaults above.
  config = RuntimeConfig::from_env(config);
  core::Runtime<apps::WordCountApp<kFlavor>> runtime(topo::host(), config);

  trace::Recorder recorder;
  runtime.set_recorder(&recorder);
  const auto result = runtime.run(app, input);

  std::cout << "word count finished: " << result.pairs.size()
            << " distinct words, " << result.queue_pushes
            << " records pipelined (max ring occupancy "
            << result.queue_max_occupancy << ")\n\n";
  std::cout << "per-thread timeline ('#' active, '.' idle, '|' close/done):\n"
            << trace::render_timeline(recorder, 72) << '\n'
            << "event summary:\n"
            << trace::summarize(recorder);

  if (telemetry::Session* session = runtime.telemetry()) {
    const double bytes = static_cast<double>(input.text.size());
    session->set_input_bytes(bytes);

    // Analytic fallback for the map/combine cells; phase_counters() prefers
    // the hardware measurement and only falls back to these when the PMU is
    // unavailable (or RAMR_PMU=off).
    const perf::AppProfile profile =
        perf::app_profile(apps::AppId::kWordCount, kFlavor);
    const perf::MemSystemView mem;  // generic out-of-order host view
    session->set_modeled(Phase::kMapCombine, telemetry::PoolKind::kMapper,
                         perf::estimate_phase(profile.map, bytes, mem));
    session->set_modeled(Phase::kMapCombine, telemetry::PoolKind::kCombiner,
                         perf::estimate_phase(profile.combine, bytes, mem));

    telemetry::write_json_file("ramr_trace.json", [&](std::ostream& out) {
      telemetry::chrome_trace_json(out, telemetry::lane_views(recorder),
                                   session->series());
    });

    telemetry::RunReport report;
    report.app = "wordcount";
    report.runtime = "ramr";
    report.effective_config =
        telemetry::effective_config(runtime.config(), result.plan);
    report.result = telemetry::make_run_info(result);
    telemetry::fill_from_session(report, *session);
    telemetry::write_json_file("ramr_run_report.json", [&](std::ostream& out) {
      telemetry::run_report_json(out, report);
    });

    std::cout << "\ntelemetry: wrote ramr_trace.json and ramr_run_report.json"
              << " (counters: " << (session->pmu_active() ? "pmu" : "model")
              << ")\n";
  }
  return 0;
}
