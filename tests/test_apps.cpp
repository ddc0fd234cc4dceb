// Tests for the six suite applications: input generators, serial
// references, both container flavors, and execution under both runtimes
// (Phoenix++ baseline and RAMR), plus the Table I registry.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "apps/io.hpp"
#include "apps/streaming.hpp"
#include "containers/metis_container.hpp"
#include "apps/string_match.hpp"
#include "apps/suite.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "core/runtime.hpp"
#include "engine/pool_depot.hpp"
#include "phoenix/runtime.hpp"
#include "pipelined.hpp"
#include "service/scheduler.hpp"
#include "topology/topology.hpp"

namespace ramr::apps {
namespace {

// Small helpers: compare a run's pairs with a reference map, and run an app
// under both runtimes and compare each.
template <typename Pairs, typename Ref>
void expect_pairs_match(const Pairs& pairs, const Ref& ref,
                        double tolerance = 0.0) {
  ASSERT_EQ(pairs.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : pairs) {
    EXPECT_EQ(k, it->first);
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      EXPECT_NEAR(v, it->second, tolerance) << "key " << k;
    } else {
      EXPECT_EQ(v, it->second) << "key " << k;
    }
    ++it;
  }
}

template <typename App, typename Ref>
void expect_both_runtimes_match(const App& app,
                                const typename App::input_type& input,
                                const Ref& ref, double tolerance = 0.0) {
  phoenix::Options po;
  po.num_workers = 3;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<App> baseline(topo::host(), po);

  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 2;
  cfg.queue_capacity = 1024;
  cfg.batch_size = 64;
  cfg.pin_policy = PinPolicy::kOsDefault;
  core::Runtime<App> ramr(topo::host(), cfg);

  std::vector<mr::result_of<App>> results;
  results.push_back(baseline.run(app, input));
  results.push_back(ramr.run(app, input));
  // core::Runtime runs a trait app fused: compare the pipeline explicitly.
  if constexpr (mr::CombinesInMap<App>) {
    results.push_back(testing::run_pipelined(app, input, cfg));
    EXPECT_GT(results.back().queue_pushes, 0u);
  }
  for (const auto& result : results) {
    expect_pairs_match(result.pairs, ref, tolerance);
  }
}

// ---------- generators -------------------------------------------------------

TEST(Inputs, TextIsDeterministicAndSized) {
  const std::string a = make_text(10000, 100, 1);
  const std::string b = make_text(10000, 100, 1);
  EXPECT_EQ(a, b);
  EXPECT_GE(a.size(), 10000u);
  EXPECT_LT(a.size(), 10100u);
  EXPECT_NE(a, make_text(10000, 100, 2));
}

TEST(Inputs, TextIsZipfSkewed) {
  const TextInput in{make_text(200000, 500, 3), 4096};
  const auto counts = wordcount_reference(in);
  std::uint64_t max_count = 0;
  std::uint64_t total = 0;
  for (const auto& [w, c] : counts) {
    max_count = std::max(max_count, c);
    total += c;
  }
  // Zipf over 500 words: the top word carries far more than 1/500 of mass.
  EXPECT_GT(max_count * 20, total / 10);
  EXPECT_GT(counts.size(), 100u);  // plenty of distinct words appear
}

TEST(Inputs, PixelsCoverRangeDeterministically) {
  const auto px = make_pixels(30000, 4);
  EXPECT_EQ(px, make_pixels(30000, 4));
  std::set<std::uint8_t> values(px.begin(), px.end());
  EXPECT_GT(values.size(), 128u);  // uniform floor reaches most intensities
}

TEST(Inputs, PointsClusterAroundCentres) {
  const auto pts = make_points(5000, 8, 5);
  EXPECT_EQ(pts.size(), 5000u);
  const auto centroids = initial_centroids(pts, 8);
  EXPECT_EQ(centroids.size(), 8u);
  EXPECT_THROW(initial_centroids(std::vector<KmPoint>(3), 8), Error);
}

TEST(Inputs, LrPointsFollowConfiguredLine) {
  const auto pts = make_lr_points(50000, 6);
  const auto ref = lr_reference({pts, 4096});
  const auto fit = lr_fit_from_moments(ref.at(kLrSx), ref.at(kLrSy),
                                       ref.at(kLrSxx), ref.at(kLrSxy),
                                       pts.size());
  EXPECT_NEAR(fit.slope, 0.8, 0.05);
  EXPECT_NEAR(fit.intercept, 12.0, 3.0);
}

TEST(Inputs, MatrixShapeAndRange) {
  const Matrix m = make_matrix(10, 20, 7);
  EXPECT_EQ(m.rows, 10u);
  EXPECT_EQ(m.cols, 20u);
  EXPECT_EQ(m.data.size(), 200u);
  for (double v : m.data) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---------- Word Count ---------------------------------------------------------

TEST(WordCount, BothFlavorsBothRuntimesMatchReference) {
  const TextInput input{make_text(60000, 300, 11), 2048};
  const auto ref = wordcount_reference(input);
  expect_both_runtimes_match(WordCountApp<ContainerFlavor::kDefault>{}, input,
                             ref);
  expect_both_runtimes_match(WordCountApp<ContainerFlavor::kHash>{}, input,
                             ref);
}

TEST(WordCount, SplitBoundariesNeverSplitWords) {
  // Tiny splits stress the boundary-snapping: totals must be identical for
  // any split size.
  const TextInput big{make_text(5000, 50, 12), 64};
  const TextInput small{big.text, 7};
  const WordCountApp<ContainerFlavor::kDefault> app;
  const auto ref = wordcount_reference(big);
  phoenix::Options po;
  po.num_workers = 2;
  po.pin_policy = PinPolicy::kOsDefault;
  const auto result = phoenix::run_once(app, small, po);
  ASSERT_EQ(result.pairs.size(), ref.size());
  for (const auto& [k, v] : result.pairs) EXPECT_EQ(v, ref.at(k));
}

TEST(WordCount, EmptyTextYieldsNoPairs) {
  const WordCountApp<ContainerFlavor::kDefault> app;
  EXPECT_EQ(app.num_splits(TextInput{}), 0u);
}

// ---------- Histogram ------------------------------------------------------------

TEST(Histogram, BothFlavorsBothRuntimesMatchReference) {
  const PixelInput input{make_pixels(90000, 13), 4096};
  const auto ref = histogram_reference(input);
  expect_both_runtimes_match(HistogramApp<ContainerFlavor::kDefault>{}, input,
                             ref);
  expect_both_runtimes_match(HistogramApp<ContainerFlavor::kHash>{}, input,
                             ref);
}

TEST(Histogram, TotalCountEqualsBytes) {
  const PixelInput input{make_pixels(12345, 14), 1000};
  const auto ref = histogram_reference(input);
  std::uint64_t total = 0;
  for (const auto& [k, v] : ref) {
    EXPECT_LT(k, kHistogramBins);
    total += v;
  }
  EXPECT_EQ(total, 12345u);
}

// ---------- Linear Regression ------------------------------------------------------

TEST(LinearRegression, BothFlavorsBothRuntimesMatchReference) {
  const LrInput input{make_lr_points(40000, 15), 1024};
  const auto ref = lr_reference(input);
  expect_both_runtimes_match(LinearRegressionApp<ContainerFlavor::kDefault>{},
                             input, ref);
  expect_both_runtimes_match(LinearRegressionApp<ContainerFlavor::kHash>{},
                             input, ref);
}

TEST(LinearRegression, FitRejectsDegenerateInput) {
  EXPECT_THROW(lr_fit_from_moments(0, 0, 0, 0, 0), Error);
  // All x equal -> zero denominator.
  EXPECT_THROW(lr_fit_from_moments(10, 5, 20, 10, 5), Error);
}

// ---------- KMeans ------------------------------------------------------------------

TEST(KMeans, BothFlavorsBothRuntimesMatchReference) {
  KmInput input;
  input.points = make_points(20000, 8, 16);
  input.centroids = initial_centroids(input.points, 8);
  input.split_points = 1024;
  const auto ref = km_reference(input);
  KMeansApp<ContainerFlavor::kDefault> app;
  app.num_clusters = 8;
  KMeansApp<ContainerFlavor::kHash> hash_app;
  hash_app.num_clusters = 8;
  expect_both_runtimes_match(app, input, ref);
  expect_both_runtimes_match(hash_app, input, ref);
}

TEST(KMeans, IterationsConverge) {
  KmInput input;
  input.points = make_points(5000, 4, 17);
  input.centroids = initial_centroids(input.points, 4);
  input.split_points = 512;
  KMeansApp<ContainerFlavor::kDefault> app;
  app.num_clusters = 4;
  phoenix::Options po;
  po.num_workers = 2;
  po.pin_policy = PinPolicy::kOsDefault;
  phoenix::Runtime<KMeansApp<ContainerFlavor::kDefault>> rt(topo::host(), po);
  double prev_shift = std::numeric_limits<double>::max();
  for (int iter = 0; iter < 6; ++iter) {
    const auto result = rt.run(app, input);
    const auto next = km_next_centroids(result.pairs, input.centroids);
    double shift = 0.0;
    for (std::size_t k = 0; k < next.size(); ++k) {
      for (std::size_t d = 0; d < kKmDim; ++d) {
        shift += std::abs(next[k].coord[d] - input.centroids[k].coord[d]);
      }
    }
    input.centroids = next;
    if (iter >= 2) {
      EXPECT_LE(shift, prev_shift + 1e-3);
    }
    prev_shift = shift;
  }
  EXPECT_LT(prev_shift, 1.0);  // converged to (near) fixed point
}

TEST(KMeans, NextCentroidsKeepsEmptyClusters) {
  std::vector<KmPoint> prev(3, KmPoint{{1.0f, 2.0f, 3.0f}});
  std::vector<std::pair<std::uint64_t, KmAccum>> merged;
  KmAccum a;
  a.sum = {10.0, 20.0, 30.0};
  a.n = 10;
  merged.emplace_back(1, a);
  const auto next = km_next_centroids(merged, prev);
  EXPECT_FLOAT_EQ(next[0].coord[0], 1.0f);  // untouched
  EXPECT_FLOAT_EQ(next[1].coord[0], 1.0f);  // 10/10
  EXPECT_FLOAT_EQ(next[1].coord[2], 3.0f);
}

// ---------- PCA ----------------------------------------------------------------------

TEST(Pca, PackedIndexIsBijective) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j <= i; ++j) seen.insert(pca_pack(i, j));
  }
  EXPECT_EQ(seen.size(), pca_pair_count(40));
  EXPECT_EQ(*seen.rbegin(), pca_pair_count(40) - 1);  // dense packing
}

TEST(Pca, MeansMatchDirectComputation) {
  const Matrix m = make_matrix(6, 40, 18);
  const auto means = pca_row_means(m);
  ASSERT_EQ(means.size(), 6u);
  double direct = 0.0;
  for (std::size_t c = 0; c < m.cols; ++c) direct += m.at(2, c);
  EXPECT_NEAR(means[2], direct / 40.0, 1e-12);
}

TEST(Pca, CovBothFlavorsBothRuntimesMatchReference) {
  PcaInput input;
  input.matrix = make_matrix(24, 200, 19);
  input.row_means = pca_row_means(input.matrix);
  input.split_cols = 16;
  const auto ref = pca_cov_reference(input);
  PcaCovApp<ContainerFlavor::kDefault> app;
  app.rows = 24;
  PcaCovApp<ContainerFlavor::kHash> hash_app;
  hash_app.rows = 24;
  expect_both_runtimes_match(app, input, ref, 1e-9);
  expect_both_runtimes_match(hash_app, input, ref, 1e-9);
}

TEST(Pca, MeanAppFeedsCovApp) {
  // End-to-end two-job pipeline: mean job output == pca_row_means * cols.
  PcaInput input;
  input.matrix = make_matrix(12, 96, 20);
  input.split_cols = 10;
  PcaMeanApp<ContainerFlavor::kDefault> app;
  app.in_rows_hint = 12;
  phoenix::Options po;
  po.num_workers = 2;
  po.pin_policy = PinPolicy::kOsDefault;
  const auto result = phoenix::run_once(app, input, po);
  const auto means = pca_row_means(input.matrix);
  ASSERT_EQ(result.pairs.size(), 12u);
  for (const auto& [r, sum] : result.pairs) {
    EXPECT_NEAR(sum / 96.0, means[r], 1e-12);
  }

  std::map<std::uint64_t, double> sums;
  for (std::size_t r = 0; r < 12; ++r) sums[r] = means[r] * 96.0;
  PcaMeanApp<ContainerFlavor::kHash> hash_app;
  hash_app.in_rows_hint = 12;
  expect_both_runtimes_match(app, input, sums, 1e-9);
  expect_both_runtimes_match(hash_app, input, sums, 1e-9);
}

TEST(Pca, CovarianceIsSymmetricPositiveDiagonal) {
  PcaInput input;
  input.matrix = make_matrix(10, 300, 21);
  input.row_means = pca_row_means(input.matrix);
  const auto ref = pca_cov_reference(input);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_GE(ref.at(pca_pack(i, i)), 0.0);  // variances non-negative
  }
}

// ---------- Matrix Multiply -------------------------------------------------------------

TEST(MatMul, BothFlavorsBothRuntimesMatchReference) {
  MmInput input;
  input.a = make_matrix(20, 30, 22);
  input.b = make_matrix(30, 20, 23);
  input.split_rows = 4;
  const Matrix c = mm_reference(input);
  std::map<std::uint64_t, double> ref;
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = 0; j < c.cols; ++j) {
      ref[i * c.cols + j] = c.at(i, j);
    }
  }
  MatrixMultiplyApp<ContainerFlavor::kDefault> app;
  app.rows_a = 20;
  app.cols_b = 20;
  MatrixMultiplyApp<ContainerFlavor::kHash> hash_app;
  hash_app.rows_a = 20;
  hash_app.cols_b = 20;
  expect_both_runtimes_match(app, input, ref, 1e-9);
  expect_both_runtimes_match(hash_app, input, ref, 1e-9);
}

TEST(MatMul, ReferenceRejectsShapeMismatch) {
  MmInput bad;
  bad.a = make_matrix(4, 5, 1);
  bad.b = make_matrix(6, 4, 2);
  EXPECT_THROW(mm_reference(bad), Error);
}

TEST(MatMul, IdentityProduct) {
  MmInput input;
  input.a = make_matrix(8, 8, 24);
  input.b.rows = input.b.cols = 8;
  input.b.data.assign(64, 0.0);
  for (std::size_t i = 0; i < 8; ++i) input.b.at(i, i) = 1.0;
  const Matrix c = mm_reference(input);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c.at(i, j), input.a.at(i, j), 1e-12);
    }
  }
}

// ---------- String Match (extension app, original Phoenix suite) ----------------------

TEST(StringMatch, BothFlavorsBothRuntimesMatchReference) {
  SmInput input;
  input.text = {make_text(40000, 50, 31), 1500};
  // Patterns drawn from the generator's vocabulary plus one guaranteed miss.
  const auto counts = wordcount_reference(input.text);
  for (const auto& [w, c] : counts) {
    input.patterns.emplace_back(w);
    if (input.patterns.size() == 5) break;
  }
  input.patterns.emplace_back("zzz-never-generated");
  const auto ref = string_match_reference(input);

  StringMatchApp<ContainerFlavor::kDefault> app;
  app.num_patterns = input.patterns.size();
  StringMatchApp<ContainerFlavor::kHash> hash_app;
  hash_app.num_patterns = input.patterns.size();
  expect_both_runtimes_match(app, input, ref);
  expect_both_runtimes_match(hash_app, input, ref);
}

TEST(StringMatch, CountsAgreeWithWordCount) {
  // Matching pattern p must count exactly as often as word-count says.
  SmInput input;
  input.text = {make_text(20000, 30, 32), 2000};
  const auto wc = wordcount_reference(input.text);
  input.patterns.emplace_back(wc.begin()->first);
  const auto ref = string_match_reference(input);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref.at(0), wc.begin()->second);
}

TEST(StringMatch, NoPatternsMatchNothing) {
  SmInput input;
  input.text = {make_text(5000, 20, 33), 1000};
  input.patterns = {"absent-a", "absent-b"};
  EXPECT_TRUE(string_match_reference(input).empty());
}

// ---------- strategy by trait: apps that combine in their map run fused ------------

static_assert(mr::CombinesInMap<HistogramApp<ContainerFlavor::kDefault>>);
static_assert(mr::CombinesInMap<HistogramApp<ContainerFlavor::kHash>>);
static_assert(
    mr::CombinesInMap<LinearRegressionApp<ContainerFlavor::kDefault>>);
static_assert(mr::CombinesInMap<LinearRegressionApp<ContainerFlavor::kHash>>);
static_assert(mr::CombinesInMap<PcaMeanApp<ContainerFlavor::kDefault>>);
static_assert(mr::CombinesInMap<PcaMeanApp<ContainerFlavor::kHash>>);
static_assert(mr::CombinesInMap<PcaCovApp<ContainerFlavor::kDefault>>);
static_assert(mr::CombinesInMap<PcaCovApp<ContainerFlavor::kHash>>);
static_assert(!mr::CombinesInMap<WordCountApp<ContainerFlavor::kDefault>>);
static_assert(!mr::CombinesInMap<StringMatchApp<ContainerFlavor::kDefault>>);
static_assert(!mr::CombinesInMap<KMeansApp<ContainerFlavor::kDefault>>);
static_assert(
    !mr::CombinesInMap<MatrixMultiplyApp<ContainerFlavor::kDefault>>);

// Runs one cell without, then with, a transient map fault retried through
// RAMR_FAULTS / RAMR_TASK_RETRIES. `run` takes the config from the env;
// every run must be fused by trait, push no record through a ring, and
// equal the serial reference.
template <typename Run, typename Ref>
void expect_fused_by_trait(Run&& run, const Ref& ref, double tolerance = 0.0) {
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "transient map fault" : "no fault");
    std::optional<env::ScopedOverride> faults;
    std::optional<env::ScopedOverride> retries;
    if (faulty) {
      faults.emplace("RAMR_FAULTS", "map_task=1,map_transient=1");
      retries.emplace("RAMR_TASK_RETRIES", "2");
    }
    RuntimeConfig cfg = RuntimeConfig::from_env();
    cfg.pin_policy = PinPolicy::kOsDefault;
    const auto result = run(cfg);
    EXPECT_EQ(result.plan.strategy, "fused");
    EXPECT_EQ(result.plan.source, "trait");
    EXPECT_EQ(result.plan.pin_policy, to_string(cfg.pin_policy));
    EXPECT_EQ(result.queue_pushes, 0u);
    EXPECT_EQ(result.task_retries, faulty ? 1u : 0u);
    expect_pairs_match(result.pairs, ref, tolerance);
  }
}

template <typename App>
auto on_runtime(const App& app, const typename App::input_type& input) {
  return [&app, &input](const RuntimeConfig& cfg) {
    return core::Runtime<App>(topo::host(), cfg).run(app, input);
  };
}

template <ContainerFlavor F>
void sweep_trait_apps() {
  const PixelInput pixels{make_pixels(90000, 13), 4096};
  const HistogramApp<F> hg;
  expect_fused_by_trait(on_runtime(hg, pixels), histogram_reference(pixels));

  const LrInput points{make_lr_points(40000, 15), 1024};
  const LinearRegressionApp<F> lr;
  expect_fused_by_trait(on_runtime(lr, points), lr_reference(points));

  PcaInput matrix;
  matrix.matrix = make_matrix(24, 200, 19);
  matrix.row_means = pca_row_means(matrix.matrix);
  matrix.split_cols = 16;
  PcaMeanApp<F> mean;
  mean.in_rows_hint = 24;
  std::map<std::uint64_t, double> sums;
  for (std::size_t r = 0; r < 24; ++r) sums[r] = matrix.row_means[r] * 200.0;
  expect_fused_by_trait(on_runtime(mean, matrix), sums, 1e-9);
  PcaCovApp<F> cov;
  cov.rows = 24;
  expect_fused_by_trait(on_runtime(cov, matrix), pca_cov_reference(matrix),
                        1e-9);
}

TEST(FusedByTrait, DefaultFlavorMatchesTheSerialReference) {
  sweep_trait_apps<ContainerFlavor::kDefault>();
}

TEST(FusedByTrait, HashFlavorMatchesTheSerialReference) {
  sweep_trait_apps<ContainerFlavor::kHash>();
}

TEST(FusedByTrait, StreamedHistogramMatchesTheSerialReference) {
  const std::vector<std::uint8_t> pixels = make_pixels(90000, 27);
  const std::string path = ::testing::TempDir() + "/ramr_fused_hg.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(pixels.data()),
              static_cast<std::streamsize>(pixels.size()));
  }
  expect_fused_by_trait(
      [&](const RuntimeConfig& cfg) {
        StreamOptions opts;
        opts.config = cfg;
        opts.io.mode = io::IoMode::kMmap;
        opts.split_bytes = 4096;
        return run_histogram_stream(path, opts);
      },
      histogram_reference({pixels, 4096}));
  std::remove(path.c_str());
}

TEST(FusedByTrait, OtherAppsStayOnThePipeline) {
  RuntimeConfig cfg;
  cfg.pin_policy = PinPolicy::kOsDefault;
  const auto expect_pipelined = [](const auto& result) {
    EXPECT_EQ(result.plan.strategy, "pipelined");
    EXPECT_EQ(result.plan.source, "default");
    EXPECT_GT(result.queue_pushes, 0u);
  };
  const TextInput text{make_text(30000, 200, 41), 2048};
  expect_pipelined(
      core::run_once(WordCountApp<ContainerFlavor::kDefault>{}, text, cfg));

  KmInput km;
  km.points = make_points(20000, 8, 16);
  km.centroids = initial_centroids(km.points, 8);
  km.split_points = 1024;
  KMeansApp<ContainerFlavor::kDefault> km_app;
  km_app.num_clusters = 8;
  expect_pipelined(core::run_once(km_app, km, cfg));

  MmInput mm;
  mm.a = make_matrix(20, 30, 22);
  mm.b = make_matrix(30, 20, 23);
  mm.split_rows = 4;
  MatrixMultiplyApp<ContainerFlavor::kDefault> mm_app;
  mm_app.rows_a = 20;
  mm_app.cols_b = 20;
  expect_pipelined(core::run_once(mm_app, mm, cfg));
}

// A trait app's Runtime leases one single-pool set of engine::fused_width
// workers at its first run and never builds the dual set: in service mode
// the set parks in the process depot, where the single shape is then
// served warm.
TEST(FusedByTrait, RuntimeNeverBuildsADualPoolSet) {
  engine::PoolDepot& depot = engine::PoolDepot::process();
  depot.clear();
  RuntimeConfig cfg;
  cfg.service_mode = true;
  cfg.pin_policy = PinPolicy::kOsDefault;
  const topo::Topology host = topo::host();
  const PixelInput input{make_pixels(30000, 5), 4096};
  const HistogramApp<ContainerFlavor::kDefault> app;
  const std::size_t built = depot.stats().built;
  {
    core::Runtime<HistogramApp<ContainerFlavor::kDefault>> rt(host, cfg);
    EXPECT_EQ(depot.stats().built, built);
    rt.run(app, input);
    EXPECT_EQ(depot.stats().built, built + 1);
    rt.run(app, input);
  }
  EXPECT_EQ(depot.stats().built, built + 1);
  EXPECT_EQ(depot.stats().idle, 1u);
  {
    auto lease = depot.acquire_single(host, engine::fused_width(host, cfg),
                                      cfg.resolved(host.num_logical()));
    EXPECT_TRUE(lease.warm());
    EXPECT_FALSE(lease.pools().dual());
    EXPECT_EQ(lease.pools().num_mappers(), host.num_logical());
  }
  depot.clear();
}

// ---------- container pluggability: Metis container through both runtimes -------------

TEST(MetisThroughRuntimes, WordCountWithMetisContainerMatchesReference) {
  // Any IntermediateContainer plugs into the AppSpec — run WC with the
  // Metis-style bucketed container instead of its usual hash table.
  struct WcMetis : WordCountApp<ContainerFlavor::kDefault> {
    using container_type =
        containers::MetisContainer<std::string_view, std::uint64_t,
                                   containers::CountCombiner>;
    container_type make_container() const {
      return container_type(max_distinct_words);
    }
  };
  const TextInput input{make_text(30000, 200, 41), 2048};
  const auto ref = wordcount_reference(input);
  expect_both_runtimes_match(WcMetis{}, input, ref);
}

// ---------- file I/O --------------------------------------------------------------------

TEST(Io, LoadTextFileKeepsRawBytesAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ramr_io_text.txt";
  const std::string raw = "hello world\nhello\tagain\rhello\v\fbye";
  {
    std::ofstream out(path, std::ios::binary);
    out << raw;
  }
  const TextInput input = load_text_file(path, 7);
  EXPECT_EQ(input.text, raw);  // the tokenizer separates on the whole class
  const auto ref = wordcount_reference(input);
  EXPECT_EQ(ref.size(), 4u);
  EXPECT_EQ(ref.at("hello"), 3u);
  EXPECT_EQ(ref.at("world"), 1u);
  EXPECT_EQ(ref.at("again"), 1u);
  EXPECT_EQ(ref.at("bye"), 1u);
  const WordCountApp<ContainerFlavor::kDefault> app;
  expect_both_runtimes_match(app, input, ref);
}

TEST(Io, NormalizeWordsFoldsCaseAndPunctuation) {
  std::string s = "Hello, World! It's 2020...";
  normalize_words(s);
  EXPECT_EQ(s, "hello  world  it s 2020   ");
  TextInput in{s, 4096};
  const auto ref = wordcount_reference(in);
  EXPECT_EQ(ref.at("hello"), 1u);
  EXPECT_EQ(ref.at("world"), 1u);
  EXPECT_EQ(ref.at("2020"), 1u);
  EXPECT_EQ(ref.count("Hello,"), 0u);
}

TEST(Io, LoadTextFileWithWordFolding) {
  const std::string path = ::testing::TempDir() + "/ramr_io_fold.txt";
  {
    std::ofstream out(path);
    out << "The cat, the CAT and THE cat.";
  }
  const TextInput input = load_text_file(path, 4096, /*fold_words=*/true);
  const auto ref = wordcount_reference(input);
  EXPECT_EQ(ref.at("the"), 3u);
  EXPECT_EQ(ref.at("cat"), 3u);
  EXPECT_EQ(ref.at("and"), 1u);
}

TEST(Io, FoldWordsOnSlurpedAppIsRefused) {
  // View keys would point into the per-split folded copy; slurped text is
  // folded at load time instead.
  WordCountApp<ContainerFlavor::kDefault> app;
  app.fold_words = true;
  const TextInput input{"Hello, world", 4};
  EXPECT_THROW(app.map(input, 0, [](auto&&...) {}), ConfigError);
}

TEST(Io, LoadBinaryFilePreservesBytes) {
  const std::string path = ::testing::TempDir() + "/ramr_io_bin.dat";
  std::vector<std::uint8_t> bytes{0, 255, 10, 13, 32, 7};
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const PixelInput input = load_binary_file(path);
  EXPECT_EQ(input.bytes, bytes);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(load_text_file("/nonexistent/ramr/file.txt"), Error);
  EXPECT_THROW(load_binary_file("/nonexistent/ramr/file.bin"), Error);
}

TEST(Io, SavePairsCsvWritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/ramr_io_pairs.csv";
  std::vector<std::pair<std::string, std::uint64_t>> pairs{{"a", 1},
                                                           {"b", 22}};
  save_pairs_csv(path, pairs);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "key,value");
  std::getline(in, line);
  EXPECT_EQ(line, "a,1");
  std::getline(in, line);
  EXPECT_EQ(line, "b,22");
  EXPECT_THROW(save_pairs_csv("/nonexistent/dir/x.csv", pairs), Error);
}

TEST(Io, FileDrivenWordCountEndToEnd) {
  const std::string path = ::testing::TempDir() + "/ramr_io_wc.txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 500; ++i) out << "alpha beta beta gamma\n";
  }
  const TextInput input = load_text_file(path, 512);
  const WordCountApp<ContainerFlavor::kDefault> app;
  phoenix::Options po;
  po.num_workers = 2;
  po.pin_policy = PinPolicy::kOsDefault;
  const auto result = phoenix::run_once(app, input, po);
  ASSERT_EQ(result.pairs.size(), 3u);
  EXPECT_EQ(result.pairs[1].first, "beta");
  EXPECT_EQ(result.pairs[1].second, 1000u);
}

// ---------- merge key sort: long keys through every runtime ------------------------

// make_text's words followed by words longer than 8 bytes, many of which
// share their first 8 bytes, so the merge's radix key sort must settle
// ties on the full key.
std::string long_key_text() {
  std::string text = make_text(256 * 1024, 4000, 17);
  const char* const stems[] = {"internat", "international", "internationale",
                               "abcdefgh", "abcdefghi", "abcdefghij"};
  for (std::size_t i = 0; i < 30000; ++i) {
    text += ' ';
    text += stems[i % 6];
    if (i % 4 != 0) text += std::to_string(i % 1500);
  }
  return text;
}

TEST(MergeKeySort, LongSharedPrefixWordsMatchReferenceThroughEveryRuntime) {
  const TextInput input{long_key_text(), 2048};
  const auto ref = wordcount_reference(input);
  const WordCountApp<ContainerFlavor::kDefault> app;

  // The default run probes, so its pairs also pass the controller's stitch.
  RuntimeConfig cfg;
  cfg.pin_policy = PinPolicy::kOsDefault;
  const auto probed =
      core::Runtime<decltype(app)>(topo::host(), cfg).run(app, input);
  EXPECT_EQ(probed.plan.source, "probe");
  expect_pairs_match(probed.pairs, ref);
  cfg.adapt_mode = AdaptMode::kOff;
  expect_pairs_match(core::Runtime<decltype(app)>(topo::host(), cfg)
                         .run(app, input)
                         .pairs,
                     ref);

  phoenix::Options po;
  po.pin_policy = PinPolicy::kOsDefault;
  expect_pairs_match(phoenix::run_once(app, input, po).pairs, ref);

  service::Scheduler sched(topo::host());
  service::JobSpec spec;
  spec.name = "long-keys";
  spec.config.pin_policy = PinPolicy::kOsDefault;
  auto [id, future] = sched.submit(spec, app, input);
  ASSERT_EQ(sched.wait(id).status, service::JobStatus::kDone);
  expect_pairs_match(future.get().pairs, ref);

  // The streamed job's keys are std::string.
  const std::string path = ::testing::TempDir() + "/ramr_long_keys.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << input.text;
  }
  StreamOptions so;
  so.config.pin_policy = PinPolicy::kOsDefault;
  so.io.mode = io::IoMode::kMmap;
  expect_pairs_match(run_wordcount_stream(path, so).pairs, ref);
}

// ---------- Table I registry --------------------------------------------------------------

TEST(TableOne, MatchesPaperValues) {
  using enum AppId;
  using enum SizeClass;
  using enum PlatformId;
  EXPECT_EQ(table1_input(kWordCount, kHaswell, kSmall).describe(kWordCount),
            "400MB");
  EXPECT_EQ(table1_input(kWordCount, kXeonPhi, kLarge).describe(kWordCount),
            "800MB");
  EXPECT_EQ(table1_input(kKMeans, kHaswell, kLarge).describe(kKMeans), "2M");
  EXPECT_EQ(table1_input(kKMeans, kXeonPhi, kSmall).describe(kKMeans),
            "200K");
  EXPECT_EQ(table1_input(kHistogram, kHaswell, kMedium).describe(kHistogram),
            "800MB");
  EXPECT_EQ(table1_input(kPca, kHaswell, kSmall).primary, 500u);
  EXPECT_EQ(table1_input(kPca, kXeonPhi, kLarge).primary, 800u);
  EXPECT_EQ(
      table1_input(kMatrixMultiply, kHaswell, kSmall).describe(kMatrixMultiply),
      "2Kx2K");
  EXPECT_EQ(
      table1_input(kMatrixMultiply, kXeonPhi, kLarge).describe(kMatrixMultiply),
      "4Kx4K");
  EXPECT_EQ(table1_input(kLinearRegression, kHaswell, kLarge)
                .describe(kLinearRegression),
            "1GB");
  EXPECT_EQ(table1_input(kLinearRegression, kXeonPhi, kLarge)
                .describe(kLinearRegression),
            "600MB");
}

TEST(TableOne, HaswellInputsAtLeastPhiInputs) {
  // "As a system with greater potential, the Haswell setup was tested under
  // heavier inputs than Xeon Phi."
  for (AppId app : kAllApps) {
    for (SizeClass size : kAllSizes) {
      const auto hwl = table1_input(app, PlatformId::kHaswell, size);
      const auto phi = table1_input(app, PlatformId::kXeonPhi, size);
      EXPECT_GE(hwl.primary, phi.primary)
          << app_name(app) << " " << size_name(size);
    }
  }
}

TEST(TableOne, SizesGrowMonotonically) {
  for (AppId app : kAllApps) {
    for (PlatformId platform : kAllPlatforms) {
      const auto s = table1_input(app, platform, SizeClass::kSmall);
      const auto m = table1_input(app, platform, SizeClass::kMedium);
      const auto l = table1_input(app, platform, SizeClass::kLarge);
      EXPECT_LE(s.primary, m.primary) << app_name(app);
      EXPECT_LE(m.primary, l.primary) << app_name(app);
    }
  }
}

TEST(TableOne, ScaledBridgesProduceUsableInputs) {
  const std::uint64_t divisor = 4096;
  const auto wc = make_wc_input(
      table1_input(AppId::kWordCount, PlatformId::kHaswell, SizeClass::kSmall),
      divisor);
  EXPECT_GT(wc.text.size(), 1000u);
  const auto km = make_km_input(
      table1_input(AppId::kKMeans, PlatformId::kHaswell, SizeClass::kSmall),
      divisor);
  EXPECT_GE(km.points.size(), 97u);
  EXPECT_EQ(km.centroids.size(), 16u);
  const auto mm = make_mm_input(table1_input(AppId::kMatrixMultiply,
                                             PlatformId::kHaswell,
                                             SizeClass::kSmall),
                                divisor);
  EXPECT_GE(mm.a.rows, 8u);
  EXPECT_EQ(mm.a.cols, mm.b.rows);
}

}  // namespace
}  // namespace ramr::apps
