// Ablation (paper Sec. III-A): "a maximum capacity of five thousand
// elements achieves near-optimal (within 2%) performance across all
// test-cases" — queue-capacity sweep per app.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

using namespace ramr;
using namespace ramr::apps;

int main(int argc, char** argv) {
  ramr::bench::init(argc, argv, "ablation_capacity");
  bench::banner("SPSC queue capacity sweep (Haswell model, default "
                "containers, large inputs; times in ms)",
                "Sec. III-A design claim");

  const std::size_t capacities[] = {512, 1000, 2000, 5000, 10000, 20000, 50000};
  stats::Table table({"app", "512", "1000", "2000", "5000", "10000", "20000",
                      "50000", "5000 vs best"});
  for (AppId app : kAllApps) {
    const auto& machine = bench::machine_of(PlatformId::kHaswell);
    const auto w = sim::suite_workload(app, ContainerFlavor::kDefault,
                                       PlatformId::kHaswell, SizeClass::kLarge);
    sim::RamrConfig cfg = sim::tuned_config(machine, w, sim::RamrConfig{.batch = 500});
    std::vector<std::string> row{app_full_name(app)};
    double at5000 = 0.0;
    double best = 1e300;
    for (std::size_t cap : capacities) {
      cfg.queue_capacity = cap;
      const double t = sim::simulate_ramr(machine, w, cfg).phases.total();
      row.push_back(stats::Table::fmt(t * 1e3, 2));
      if (cap == 5000) at5000 = t;
      best = std::min(best, t);
    }
    std::string gap = "+";
    gap += stats::Table::fmt(100.0 * (at5000 - best) / best, 2);
    row.push_back(gap += '%');
    table.add_row(std::move(row));
  }
  bench::print(table);
  std::cout << "\n(paper: 5000 elements within 2% of optimal across all "
               "test-cases)\n";
  return 0;
}
