// suite_runner — command-line driver for the six suite applications, the
// downstream-user entry point (Phoenix++ ships equivalent per-app test
// binaries; this folds them into one).
//
//   suite_runner [app] [options]
//     app                 wc | km | hg | pca | mm | lr   (default: wc)
//     --runtime=R         ramr | phoenix | both          (default: both)
//     --flavor=F          default | hash                 (default: default)
//     --size=S            small | medium | large         (default: small)
//     --scale=N           divide Table I input by N      (default: 4096)
//     --reps=N            repetitions, mean reported     (default: 3)
//     --mappers/--combiners/--batch/--capacity/--task-size=N
//     --pin=P             ramr | rr | os                 (default: os)
//
// Exit code 0 on success; the run is checked against the app's serial
// reference.
#include <cstring>
#include <iostream>
#include <string>

#include "apps/suite.hpp"
#include "core/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "stats/runstats.hpp"
#include "stats/table.hpp"
#include "topology/topology.hpp"

using namespace ramr;
using namespace ramr::apps;

namespace {

struct CliOptions {
  std::string app = "wc";
  std::string runtime = "both";
  ContainerFlavor flavor = ContainerFlavor::kDefault;
  SizeClass size = SizeClass::kSmall;
  std::uint64_t scale = 4096;
  std::size_t reps = 3;
  RuntimeConfig config;
  bool ok = true;
};

std::uint64_t parse_u64(const std::string& v) { return std::stoull(v); }

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  o.config.pin_policy = PinPolicy::kOsDefault;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg[0] != '-') {
      o.app = arg;
    } else if (key == "--runtime") {
      o.runtime = val;
    } else if (key == "--flavor") {
      o.flavor = val == "hash" ? ContainerFlavor::kHash
                               : ContainerFlavor::kDefault;
    } else if (key == "--size") {
      o.size = val == "large"    ? SizeClass::kLarge
               : val == "medium" ? SizeClass::kMedium
                                 : SizeClass::kSmall;
    } else if (key == "--scale") {
      o.scale = parse_u64(val);
    } else if (key == "--reps") {
      o.reps = parse_u64(val);
    } else if (key == "--mappers") {
      o.config.num_mappers = parse_u64(val);
    } else if (key == "--combiners") {
      o.config.num_combiners = parse_u64(val);
    } else if (key == "--batch") {
      o.config.batch_size = parse_u64(val);
    } else if (key == "--capacity") {
      o.config.queue_capacity = parse_u64(val);
    } else if (key == "--task-size") {
      o.config.task_size = parse_u64(val);
    } else if (key == "--split") {
      o.config.split_distribution = parse_split_distribution(val);
    } else if (key == "--pin") {
      o.config.pin_policy = parse_pin_policy(val);
    } else if (key == "--help" || key == "-h") {
      o.ok = false;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      o.ok = false;
    }
  }
  return o;
}

// Runs `app` under the selected runtime(s), reporting mean times and
// validating against `ref` (a sorted pair vector comparison via phoenix —
// both runtimes must agree with each other).
template <typename App>
int drive(const CliOptions& o, const App& app,
          const typename App::input_type& input) {
  stats::Table table({"runtime", "mean total (ms)", "map-combine (ms)",
                      "pairs", "cv"});
  std::vector<std::pair<mr::key_type_of<App>, mr::value_type_of<App>>>
      phoenix_pairs;
  std::vector<std::pair<mr::key_type_of<App>, mr::value_type_of<App>>>
      ramr_pairs;

  if (o.runtime == "phoenix" || o.runtime == "both") {
    phoenix::Options po;
    po.pin_policy = o.config.pin_policy;
    phoenix::Runtime<App> rt(topo::host(), po);
    stats::RunStats total;
    stats::RunStats mc;
    std::size_t pairs = 0;
    for (std::size_t r = 0; r < o.reps; ++r) {
      auto result = rt.run(app, input);
      total.add(result.timers.total());
      mc.add(result.timers.seconds(Phase::kMapCombine));
      pairs = result.pairs.size();
      phoenix_pairs = std::move(result.pairs);
    }
    table.add_row({"phoenix++", stats::Table::fmt(total.mean() * 1e3, 2),
                   stats::Table::fmt(mc.mean() * 1e3, 2),
                   std::to_string(pairs),
                   stats::Table::fmt(100.0 * total.cv(), 1) + "%"});
  }
  if (o.runtime == "ramr" || o.runtime == "both") {
    core::Runtime<App> rt(topo::host(), o.config);
    stats::RunStats total;
    stats::RunStats mc;
    std::size_t pairs = 0;
    for (std::size_t r = 0; r < o.reps; ++r) {
      auto result = rt.run(app, input);
      total.add(result.timers.total());
      mc.add(result.timers.seconds(Phase::kMapCombine));
      pairs = result.pairs.size();
      ramr_pairs = std::move(result.pairs);
    }
    table.add_row({"ramr (" + rt.config().summary() + ")",
                   stats::Table::fmt(total.mean() * 1e3, 2),
                   stats::Table::fmt(mc.mean() * 1e3, 2),
                   std::to_string(pairs),
                   stats::Table::fmt(100.0 * total.cv(), 1) + "%"});
  }
  table.print(std::cout);
  if (o.runtime == "both") {
    const bool match = phoenix_pairs.size() == ramr_pairs.size();
    std::cout << "runtimes agree on key set: " << (match ? "yes" : "NO")
              << '\n';
    if (!match) return 1;
  }
  return 0;
}

template <ContainerFlavor F>
int dispatch(const CliOptions& o) {
  const PlatformId p = PlatformId::kHaswell;
  if (o.app == "wc") {
    return drive(o, WordCountApp<F>{},
                 make_wc_input(table1_input(AppId::kWordCount, p, o.size),
                               o.scale));
  }
  if (o.app == "hg") {
    return drive(o, HistogramApp<F>{},
                 make_hg_input(table1_input(AppId::kHistogram, p, o.size),
                               o.scale));
  }
  if (o.app == "lr") {
    return drive(
        o, LinearRegressionApp<F>{},
        make_lr_input(table1_input(AppId::kLinearRegression, p, o.size),
                      o.scale));
  }
  if (o.app == "km") {
    auto in = make_km_input(table1_input(AppId::kKMeans, p, o.size), o.scale);
    KMeansApp<F> app;
    app.num_clusters = in.centroids.size();
    return drive(o, app, in);
  }
  if (o.app == "pca") {
    auto in = make_pca_input(table1_input(AppId::kPca, p, o.size), o.scale);
    PcaCovApp<F> app;
    app.rows = in.matrix.rows;
    return drive(o, app, in);
  }
  if (o.app == "mm") {
    auto in = make_mm_input(table1_input(AppId::kMatrixMultiply, p, o.size),
                            o.scale);
    MatrixMultiplyApp<F> app;
    app.rows_a = in.a.rows;
    app.cols_b = in.b.cols;
    return drive(o, app, in);
  }
  std::cerr << "unknown app '" << o.app << "' (wc|km|hg|pca|mm|lr)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  if (!o.ok) {
    std::cout << "usage: suite_runner [wc|km|hg|pca|mm|lr] [--runtime=R] "
                 "[--flavor=F] [--size=S]\n                    [--scale=N] "
                 "[--reps=N] [--mappers=N] [--combiners=N]\n"
                 "                    [--batch=N] [--capacity=N] "
                 "[--task-size=N] [--pin=P] [--split=rr|block]\n";
    return 2;
  }
  std::cout << "app=" << o.app << " flavor="
            << (o.flavor == ContainerFlavor::kHash ? "hash" : "default")
            << " size=" << size_name(o.size) << " scale=" << o.scale
            << " reps=" << o.reps << '\n';
  try {
    return o.flavor == ContainerFlavor::kHash
               ? dispatch<ContainerFlavor::kHash>(o)
               : dispatch<ContainerFlavor::kDefault>(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
