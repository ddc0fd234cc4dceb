// Integration tests: whole-pipeline behaviour across modules — env-knob
// driven configuration, cross-runtime equivalence on the real suite apps,
// failure injection (map/combine exceptions, container capacity
// exhaustion), oversubscription, and back-to-back heterogeneous jobs on
// one runtime's pools.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "apps/suite.hpp"
#include "common/env.hpp"
#include "core/runtime.hpp"
#include "phoenix/runtime.hpp"
#include "pipelined.hpp"
#include "spsc/lamport.hpp"
#include "topology/topology.hpp"

namespace ramr {
namespace {

using namespace ramr::apps;

// ---------- env-driven configuration end-to-end ---------------------------------

TEST(Integration, FullEnvKnobSetDrivesARealRun) {
  env::ScopedOverride a("RAMR_MAPPERS", "3");
  env::ScopedOverride b("RAMR_COMBINERS", "2");
  env::ScopedOverride c("RAMR_TASK_SIZE", "2");
  env::ScopedOverride d("RAMR_QUEUE_CAPACITY", "128");
  env::ScopedOverride e("RAMR_BATCH_SIZE", "16");
  env::ScopedOverride f("RAMR_PIN_POLICY", "os");

  // WC runs the decoupled pipeline, so the ring knobs reach the run (HG,
  // LR and PCA run fused by their kCombinesInMap trait).
  const TextInput input{make_text(50000, 300, 1), 2048};
  const WordCountApp<ContainerFlavor::kDefault> app;
  core::Runtime<WordCountApp<ContainerFlavor::kDefault>> rt(
      topo::host(), RuntimeConfig::from_env());
  EXPECT_EQ(rt.config().num_mappers, 3u);
  EXPECT_EQ(rt.config().num_combiners, 2u);
  EXPECT_EQ(rt.config().batch_size, 16u);
  const auto result = rt.run(app, input);
  EXPECT_EQ(result.plan.strategy, "pipelined");
  EXPECT_EQ(result.plan.source, "env");
  EXPECT_EQ(result.plan.batch_size, 16u);
  EXPECT_EQ(result.plan.queue_capacity, 128u);
  EXPECT_GT(result.queue_pushes, 0u);
  const auto ref = wordcount_reference(input);
  ASSERT_EQ(result.pairs.size(), ref.size());
  for (const auto& [k, v] : result.pairs) EXPECT_EQ(v, ref.at(k));
}

// ---------- failure injection -----------------------------------------------------

struct ThrowingMapApp {
  using input_type = std::vector<int>;
  using container_type =
      containers::FixedArrayContainer<std::uint64_t, containers::CountCombiner>;

  std::size_t num_splits(const input_type& in) const { return in.size(); }
  container_type make_container() const { return container_type(8); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    if (in[split] < 0) throw Error("poisoned split");
    emit(static_cast<std::uint64_t>(in[split]) % 8, std::uint64_t{1});
  }
};

// A fixed hash container that is too small for the emitted key range:
// CapacityError fires inside the combine path.
struct TinyHashApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type =
      containers::FixedHashContainer<std::uint64_t, std::uint64_t,
                                     containers::CountCombiner>;
  std::size_t num_splits(const input_type& in) const { return in.size(); }
  container_type make_container() const { return container_type(4); }
  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    emit(in[split], std::uint64_t{1});
  }
};

TEST(Integration, MapExceptionPropagatesFromPhoenix) {
  phoenix::Options po;
  po.num_workers = 2;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<ThrowingMapApp> rt(topo::host(), po);
  std::vector<int> poisoned(100, 1);
  poisoned[57] = -1;
  EXPECT_THROW(rt.run(ThrowingMapApp{}, poisoned), Error);
  // The pool survives; a clean run afterwards succeeds.
  const std::vector<int> clean(100, 1);
  const auto result = rt.run(ThrowingMapApp{}, clean);
  EXPECT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].second, 100u);
}

TEST(Integration, CombineCapacityExhaustionPropagatesFromPhoenix) {
  phoenix::Options po;
  po.num_workers = 1;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<TinyHashApp> rt(topo::host(), po);
  std::vector<std::uint64_t> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;
  EXPECT_THROW(rt.run(TinyHashApp{}, input), CapacityError);
}

TEST(Integration, MapExceptionDoesNotHangRamr) {
  // The decoupled runtime's failure protocol: a dying mapper still closes
  // its ring so combiners terminate, and the runtime stays usable.
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 16;
  cfg.batch_size = 4;
  core::Runtime<ThrowingMapApp> rt(topo::host(), cfg);
  std::vector<int> poisoned(200, 1);
  poisoned[123] = -1;
  EXPECT_THROW(rt.run(ThrowingMapApp{}, poisoned), Error);
  const std::vector<int> clean(200, 2);
  const auto result = rt.run(ThrowingMapApp{}, clean);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].second, 200u);
}

TEST(Integration, CombinerExceptionAbortsRamrCleanly) {
  // The combiner hits CapacityError mid-drain; blocked mappers must abort
  // (combiner_failed flag) instead of pushing into a dead queue forever.
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 8;  // tiny: mappers block quickly once it dies
  cfg.batch_size = 2;
  core::Runtime<TinyHashApp> rt(topo::host(), cfg);
  std::vector<std::uint64_t> input(500);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;
  EXPECT_THROW(rt.run(TinyHashApp{}, input), Error);
  // Usable afterwards with in-capacity keys.
  std::vector<std::uint64_t> small(100);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = i % 4;
  const auto result = rt.run(TinyHashApp{}, small);
  EXPECT_EQ(result.pairs.size(), 4u);
}

// ---------- heterogeneous back-to-back jobs ------------------------------------------

TEST(Integration, SameRuntimeRunsGrowingInputs) {
  const WordCountApp<ContainerFlavor::kDefault> app;
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 64;  // force wraparound + backpressure across runs
  cfg.batch_size = 8;
  core::Runtime<WordCountApp<ContainerFlavor::kDefault>> rt(topo::host(), cfg);
  for (std::size_t kb : {4u, 16u, 64u}) {
    TextInput input{make_text(kb * 1024, 100, kb), 1024};
    const auto result = rt.run(app, input);
    const auto ref = wordcount_reference(input);
    ASSERT_EQ(result.pairs.size(), ref.size()) << kb << "KB";
    for (const auto& [w, n] : result.pairs) EXPECT_EQ(n, ref.at(w));
  }
}

// ---------- oversubscription stress -----------------------------------------------------

TEST(Integration, HeavyOversubscriptionOnTinyHost) {
  // 12 mappers + 6 combiners regardless of host size: progress and
  // correctness must not depend on thread count <= cores.
  KmInput input = make_km_input(
      table1_input(AppId::kKMeans, PlatformId::kHaswell, SizeClass::kSmall),
      /*divisor=*/1000, /*num_clusters=*/8);
  input.split_points = 512;
  KMeansApp<ContainerFlavor::kDefault> app;
  app.num_clusters = 8;
  RuntimeConfig cfg;
  cfg.num_mappers = 12;
  cfg.num_combiners = 6;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 32;
  cfg.batch_size = 8;
  core::Runtime<KMeansApp<ContainerFlavor::kDefault>> rt(topo::host(), cfg);
  const auto result = rt.run(app, input);
  const auto ref = km_reference(input);
  ASSERT_EQ(result.pairs.size(), ref.size());
  for (const auto& [k, acc] : result.pairs) {
    EXPECT_EQ(acc.n, ref.at(k).n);
  }
}

// ---------- suite-wide cross-runtime equivalence (the headline invariant) -------------

template <typename App, typename Input>
void expect_equivalent(const App& app, const Input& input) {
  phoenix::Options po;
  po.num_workers = 3;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<App> baseline(topo::host(), po);
  RuntimeConfig cfg;
  cfg.num_mappers = 3;
  cfg.num_combiners = 2;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 512;
  cfg.batch_size = 64;
  core::Runtime<App> ramr(topo::host(), cfg);
  const auto a = baseline.run(app, input);
  std::vector<mr::result_of<App>> runs;
  runs.push_back(ramr.run(app, input));
  // core::Runtime runs a trait app fused: compare the pipeline explicitly.
  if constexpr (mr::CombinesInMap<App>) {
    runs.push_back(testing::run_pipelined(app, input, cfg));
  }
  for (const auto& b : runs) {
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
      EXPECT_EQ(a.pairs[i].first, b.pairs[i].first) << "index " << i;
    }
  }
}

TEST(Integration, AllSixAppsEquivalentAcrossRuntimes) {
  const std::uint64_t div = 16384;
  expect_equivalent(
      WordCountApp<ContainerFlavor::kDefault>{},
      make_wc_input(table1_input(AppId::kWordCount, PlatformId::kHaswell,
                                 SizeClass::kSmall),
                    div));
  expect_equivalent(
      HistogramApp<ContainerFlavor::kDefault>{},
      make_hg_input(table1_input(AppId::kHistogram, PlatformId::kHaswell,
                                 SizeClass::kSmall),
                    div));
  expect_equivalent(
      LinearRegressionApp<ContainerFlavor::kDefault>{},
      make_lr_input(table1_input(AppId::kLinearRegression,
                                 PlatformId::kHaswell, SizeClass::kSmall),
                    div));
  {
    auto in = make_km_input(
        table1_input(AppId::kKMeans, PlatformId::kHaswell, SizeClass::kSmall),
        div, 8);
    KMeansApp<ContainerFlavor::kDefault> app;
    app.num_clusters = 8;
    expect_equivalent(app, in);
  }
  {
    auto in = make_pca_input(
        table1_input(AppId::kPca, PlatformId::kHaswell, SizeClass::kSmall),
        div * 16);
    PcaCovApp<ContainerFlavor::kDefault> app;
    app.rows = in.matrix.rows;
    expect_equivalent(app, in);
  }
  {
    auto in = make_mm_input(table1_input(AppId::kMatrixMultiply,
                                         PlatformId::kHaswell,
                                         SizeClass::kSmall),
                            div * 16);
    MatrixMultiplyApp<ContainerFlavor::kDefault> app;
    app.rows_a = in.a.rows;
    app.cols_b = in.b.cols;
    expect_equivalent(app, in);
  }
}

// ---------- LamportQueue basic coverage (ablation baseline) ----------------------------

TEST(Integration, LamportQueueTransfersEverything) {
  spsc::LamportQueue<std::uint64_t> q(64);
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t out;
    std::uint64_t received = 0;
    while (received < 10000) {
      if (q.try_pop(out)) {
        sum += out;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    while (!q.try_push(std::uint64_t{i})) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, 10000ull * 10001 / 2);
}

TEST(Integration, LamportQueueSemantics) {
  spsc::LamportQueue<int> q(4);
  EXPECT_THROW(spsc::LamportQueue<int>(1), ConfigError);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(int{4}));
  int out;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_EQ(q.size(), 3u);
}

}  // namespace
}  // namespace ramr
