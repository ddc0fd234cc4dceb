// Ablation (paper Sec. III-A, "Sleep on failed push"): sleeping mappers vs
// busy-waiting mappers when the pipeline is combiner-limited. A spinning
// blocked mapper burns issue slots of the (SMT-shared) core its combiner
// needs; a sleeping one frees them.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_array_container.hpp"
#include "core/runtime.hpp"

using namespace ramr;
using namespace ramr::apps;

namespace {

// Tiny native workload for the policy comparison below: modulo-count over a
// vector, one record per element, so a small ring genuinely backpressures.
struct ModCountBenchApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t,
                                      containers::CountCombiner>;
  std::size_t buckets = 64;
  std::size_t chunk = 256;

  std::size_t num_splits(const input_type& in) const {
    return (in.size() + chunk - 1) / chunk;
  }
  container_type make_container() const { return container_type(buckets); }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * chunk;
    const std::size_t end = std::min(begin + chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      emit(in[i] % buckets, std::uint64_t{1});
    }
  }
};

// One native pipelined run; reports the RunResult wait/failed-push
// instrumentation.
void native_wait_row(stats::Table& table,
                     const ModCountBenchApp::input_type& input) {
  RuntimeConfig cfg;
  cfg.num_mappers = 3;
  cfg.num_combiners = 1;  // combiner-limited on purpose
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 16;  // heavy backpressure
  cfg.batch_size = 8;
  core::Runtime<ModCountBenchApp> rt(topo::host(), cfg);
  const auto result = rt.run(ModCountBenchApp{}, input);
  table.add_row({"ring wait",
                 stats::Table::fmt(result.timers.total() * 1e3, 2),
                 std::to_string(result.queue_failed_pushes),
                 std::to_string(result.backoff_sleeps)});
}

}  // namespace

int main(int argc, char** argv) {
  ramr::bench::init(argc, argv, "ablation_backoff");
  bench::banner("Sleep-on-failed-push vs busy-wait (combiner-limited "
                "workloads, Haswell model)",
                "Sec. III-A design claim");

  stats::Table table({"workload", "busy-wait (ms)", "sleep (ms)",
                      "sleep speedup", "bottleneck"});
  for (AppId app : kAllApps) {
    for (ContainerFlavor flavor :
         {ContainerFlavor::kDefault, ContainerFlavor::kHash}) {
      const auto w = sim::suite_workload(app, flavor, PlatformId::kHaswell,
                                         SizeClass::kLarge);
      const auto& machine = bench::machine_of(PlatformId::kHaswell);
      sim::RamrConfig cfg = sim::tuned_config(machine, w, sim::RamrConfig{.batch = 1000});
      cfg.sleep_on_full = false;
      const auto spin = sim::simulate_ramr(machine, w, cfg);
      cfg.sleep_on_full = true;
      const auto sleep = sim::simulate_ramr(machine, w, cfg);
      table.add_row(
          {std::string(app_name(app)) + "/" + to_string(flavor),
           stats::Table::fmt(spin.phases.total() * 1e3, 2),
           stats::Table::fmt(sleep.phases.total() * 1e3, 2),
           stats::Table::fmt(spin.phases.total() / sleep.phases.total(), 3),
           spin.mapper_limited ? "mappers" : "combiner"});
    }
  }
  bench::print(table);
  std::cout << "\nSleeping only matters when producers block (combiner-"
               "limited rows); it never hurts.\n";

  // The native full-ring wait on the real pipeline: a combiner-limited run
  // with a deliberately tiny ring, instrumented with the RunResult wait
  // counter.
  bench::banner("Native full-ring wait (tiny ring, 3 mappers : 1 combiner)",
                "block on the ring until the combiner drains it");
  std::vector<std::uint64_t> input(100000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = i * 2654435761u;
  }
  stats::Table native({"wait", "total (ms)", "failed pushes", "waits"});
  native_wait_row(native, input);
  bench::print(native);
  std::cout << "\n'waits' is RunResult::backoff_sleeps — blocking waits"
               " of mappers on full rings and of the idle combiner.\n";
  return 0;
}
