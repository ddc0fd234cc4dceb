// Architecture comparison: the three shared-memory MapReduce designs of the
// paper's design space, run natively on identical inputs with identical map
// code —
//   * Phoenix++ (fused): thread-local containers, combine inline;
//   * RAMR (decoupled): SPSC pipelines to combiner threads;
//   * MRPhi-style (global): one atomically-accessed shared container.
// Restricted to HG and LR — the a-priori-key-range apps the MRPhi design
// admits (Sec. II). core::Runtime runs these two fused (they combine in
// their map), so the decoupled column drives engine::PipelinedSpsc
// explicitly.
#include <iostream>

#include "apps/global_apps.hpp"
#include "apps/suite.hpp"
#include "bench_util.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_pipelined.hpp"
#include "mrphi/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "stats/runstats.hpp"
#include "topology/topology.hpp"

using namespace ramr;
using namespace ramr::apps;

namespace {

template <typename App, typename GlobalApp>
void compare(stats::Table& table, const char* name, const App& app,
             const GlobalApp& global_app,
             const typename App::input_type& input, std::size_t reps) {
  const auto topo = topo::host();

  phoenix::Options po;
  po.pin_policy = PinPolicy::kOsDefault;
  po.num_workers = std::max<std::size_t>(2, topo.num_logical());
  phoenix::Runtime<App> fused(topo, po);

  RuntimeConfig rc;
  rc.num_mappers = std::max<std::size_t>(1, topo.num_logical() / 2);
  rc.num_combiners = rc.num_mappers;
  rc.pin_policy = PinPolicy::kOsDefault;
  rc.batch_size = 256;
  engine::PoolSet decoupled_pools(topo, rc);
  engine::PhaseDriver decoupled(decoupled_pools,
                                engine::driver_options_from(rc));

  mrphi::Options mo;
  mo.pin_policy = PinPolicy::kOsDefault;
  mo.num_workers = po.num_workers;
  mrphi::Runtime<GlobalApp> global(topo, mo);

  stats::RunStats t_fused;
  stats::RunStats t_decoupled;
  stats::RunStats t_global;
  for (std::size_t r = 0; r < reps; ++r) {
    t_fused.add(fused.run(app, input).timers.total());
    engine::PipelinedSpsc<App> pipelined;
    t_decoupled.add(decoupled.run(pipelined, app, input).timers.total());
    t_global.add(global.run(global_app, input).timers.total());
  }
  table.add_row({name, stats::Table::fmt(t_fused.mean() * 1e3, 2),
                 stats::Table::fmt(t_decoupled.mean() * 1e3, 2),
                 stats::Table::fmt(t_global.mean() * 1e3, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  ramr::bench::init(argc, argv, "ablation_runtimes");
  const std::uint64_t scale = bench_scale_from_env() * 1024;
  const std::size_t reps = 3;
  bench::banner("Three architectures on identical inputs (native, Table I "
                "small / " + std::to_string(scale) + ", mean of " +
                    std::to_string(reps) + ")",
                "the paper's Sec. II design space");
  std::cout << "host: " << topo::host().summary() << "\n\n";

  stats::Table table({"app", "phoenix++ fused (ms)", "ramr decoupled (ms)",
                      "mrphi global (ms)"});
  const PlatformId p = PlatformId::kHaswell;
  compare(table, "Histogram", HistogramApp<ContainerFlavor::kDefault>{},
          HistogramGlobalApp{},
          make_hg_input(table1_input(AppId::kHistogram, p, SizeClass::kSmall),
                        scale),
          reps);
  compare(table, "Linear Regression",
          LinearRegressionApp<ContainerFlavor::kDefault>{},
          LinearRegressionGlobalApp{},
          make_lr_input(
              table1_input(AppId::kLinearRegression, p, SizeClass::kSmall),
              scale),
          reps);
  bench::print(table);
  std::cout << "\nEach design pays differently: fused pays reduce-phase "
               "merging; decoupled pays queue\ntraffic (these apps are its "
               "worst case — Figs. 8/9); global pays coherence contention\n"
               "on hot slots (with only 5 keys, LR is its worst case on "
               "many cores).\n";
  return 0;
}
