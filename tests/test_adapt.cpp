// Tests for the adaptive runtime controller (src/adapt/): the suitability
// model against the repo's Fig. 10a reproduction, the plan cache (round
// trip + corrupt-file recovery), env-knob validation, end-to-end
// probe/commit/cache runs on real inputs, and what core::Runtime decides
// under the default config.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "adapt/plan.hpp"
#include "adapt/plan_cache.hpp"
#include "adapt/suitability.hpp"
#include "apps/flavor.hpp"
#include "apps/histogram.hpp"
#include "apps/inputs.hpp"
#include "apps/suite.hpp"
#include "apps/wordcount.hpp"
#include "common/config.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "core/runtime.hpp"
#include "mini_apps.hpp"
#include "sim/machine.hpp"
#include "sim/model.hpp"
#include "sim/workload.hpp"
#include "synth/synth_app.hpp"
#include "topology/topology.hpp"

namespace ramr::adapt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ramr_" + name;
}

// ---- suitability model ----------------------------------------------------

// The default floors must reproduce the paper's Fig. 10a verdicts on the
// repo's own reproduction of the figure (Haswell model, default
// containers): WC/KM/MM profit from decoupling, HG/LR are too light, PCA
// is heavy but stall-free.
TEST(Suitability, Fig10aVerdictsMatchPaper) {
  const auto machine = sim::haswell();
  const SuitabilityModel model;
  const struct {
    apps::AppId id;
    bool pipelined;
  } expected[] = {
      {apps::AppId::kWordCount, true},
      {apps::AppId::kKMeans, true},
      {apps::AppId::kHistogram, false},
      {apps::AppId::kPca, false},
      {apps::AppId::kMatrixMultiply, true},
      {apps::AppId::kLinearRegression, false},
  };
  for (const auto& e : expected) {
    const auto workload =
        sim::suite_workload(e.id, apps::ContainerFlavor::kDefault,
                            apps::PlatformId::kHaswell, apps::SizeClass::kLarge);
    const auto counters = sim::simulate_phoenix(machine, workload).counters;
    const Verdict v = judge_counters(model, counters);
    EXPECT_EQ(v.pipelined, e.pipelined)
        << apps::app_full_name(e.id) << ": " << v.reason;
  }
}

TEST(Suitability, EmpiricalRuleNeedsBothIntensityAndCombineShare) {
  const SuitabilityModel model;
  EmpiricalSample heavy;
  heavy.map_cpu_seconds = 0.6;
  heavy.combine_cpu_seconds = 0.4;
  heavy.records = 1'000'000;  // 1000 ns/record
  EXPECT_TRUE(judge_empirical(model, heavy).pipelined);

  EmpiricalSample cheap = heavy;
  cheap.records = 100'000'000;  // 10 ns/record: too light
  const Verdict light = judge_empirical(model, cheap);
  EXPECT_FALSE(light.pipelined);
  EXPECT_NE(light.reason.find("too cheap"), std::string::npos);

  EmpiricalSample map_bound = heavy;
  map_bound.map_cpu_seconds = 0.95;
  map_bound.combine_cpu_seconds = 0.05;  // combine share 5%
  EXPECT_FALSE(judge_empirical(model, map_bound).pipelined);

  EXPECT_FALSE(judge_empirical(model, EmpiricalSample{}).pipelined);
}

// ---- plan identity + cache ------------------------------------------------

TEST(Plan, SizeBucketAndCacheKeyAreStable)
{
  EXPECT_EQ(input_size_bucket(0), 0u);
  EXPECT_EQ(input_size_bucket(1), 1u);
  EXPECT_EQ(input_size_bucket(1023), 10u);
  EXPECT_EQ(input_size_bucket(1024), 11u);

  const PlanKey key{"wc", 11, 0xabcULL};
  EXPECT_EQ(key.cache_key(), "wc/b11/tabc");

  const auto host = topo::host();
  EXPECT_EQ(topology_hash(host), topology_hash(host));
}

TEST(PlanCache, RoundTripAcrossInstances) {
  const std::string path = temp_path("plan_cache_roundtrip.json");
  std::remove(path.c_str());

  PlanCache cache(path);
  EXPECT_FALSE(cache.corrupt());
  EXPECT_EQ(cache.size(), 0u);

  const PlanKey key{"synth", 8, 0x1234ULL};
  engine::PlanInfo plan;
  plan.strategy = "pipelined";
  plan.ratio = 3;
  plan.batch_size = 512;
  plan.queue_capacity = 4096;
  plan.pin_policy = "os-default";
  plan.source = "probe";
  cache.store(key, plan);

  PlanCache reloaded(path);
  EXPECT_FALSE(reloaded.corrupt());
  EXPECT_EQ(reloaded.size(), 1u);
  const auto hit = reloaded.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->strategy, "pipelined");
  EXPECT_EQ(hit->ratio, 3u);
  EXPECT_EQ(hit->batch_size, 512u);
  EXPECT_EQ(hit->queue_capacity, 4096u);
  EXPECT_EQ(hit->pin_policy, "os-default");
  EXPECT_EQ(hit->source, "cache");  // provenance reflects this run, not store

  const PlanKey other{"synth", 9, 0x1234ULL};
  EXPECT_FALSE(reloaded.lookup(other).has_value());
  std::remove(path.c_str());
}

TEST(PlanCache, CorruptFileDegradesAndStoreRecovers) {
  const std::string path = temp_path("plan_cache_corrupt.json");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"plans\": [this is not json";
  }
  PlanCache cache(path);
  EXPECT_TRUE(cache.corrupt());
  EXPECT_EQ(cache.size(), 0u);

  const PlanKey key{"wc", 4, 0x9ULL};
  engine::PlanInfo plan;
  plan.strategy = "fused";
  plan.ratio = 2;
  plan.batch_size = 256;
  plan.queue_capacity = 5000;
  plan.pin_policy = "paired";
  cache.store(key, plan);  // whole-file rewrite is the recovery path
  EXPECT_FALSE(cache.corrupt());

  PlanCache reloaded(path);
  EXPECT_FALSE(reloaded.corrupt());
  ASSERT_TRUE(reloaded.lookup(key).has_value());
  EXPECT_EQ(reloaded.lookup(key)->strategy, "fused");
  std::remove(path.c_str());
}

TEST(PlanCache, MissingFileIsEmptyNotCorrupt) {
  const std::string path = temp_path("plan_cache_missing.json");
  std::remove(path.c_str());
  PlanCache cache(path);
  EXPECT_FALSE(cache.corrupt());
  EXPECT_EQ(cache.size(), 0u);
}

// ---- end-to-end controller runs -------------------------------------------

RuntimeConfig adaptive_config(const std::string& cache_path) {
  RuntimeConfig cfg;
  cfg.plan_cache_path = cache_path;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  return cfg;
}

// Light histogram-like workload: records are far too cheap to amortize
// queue traffic, so the probe must commit the fused plan — and the stitched
// result (probe slices + main run) must still count every element.
TEST(AdaptE2E, LightWorkloadCommitsFusedAndStaysCorrect) {
  const std::string cache = temp_path("adapt_light.json");
  std::remove(cache.c_str());
  const RuntimeConfig cfg = adaptive_config(cache);

  ramr::testing::ModCountApp app;
  app.chunk = 128;  // 256 splits; each probe slice covers thousands of
                    // records so fixed probe costs amortize out
  std::vector<std::uint64_t> input(32768);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;

  core::Runtime<ramr::testing::ModCountApp> runtime(topo::host(), cfg);
  const auto result = runtime.run(app, input);

  EXPECT_EQ(result.plan.strategy, "fused");
  EXPECT_EQ(result.plan.source, "probe");
  EXPECT_TRUE(result.plan.decided());
  std::uint64_t total = 0;
  for (const auto& [k, v] : result.pairs) total += v;
  EXPECT_EQ(total, input.size());
  const auto reference = app.reference(input);
  ASSERT_EQ(result.pairs.size(), reference.size());
  for (const auto& [k, v] : result.pairs) {
    EXPECT_EQ(reference.at(k), v) << "key " << k;
  }

  // Warm run: same app, same input bucket, same machine — cache hit, no
  // probe, same verdict.
  core::Runtime<ramr::testing::ModCountApp> warm(topo::host(), cfg);
  const auto again = warm.run(app, input);
  EXPECT_EQ(again.plan.strategy, "fused");
  EXPECT_EQ(again.plan.source, "cache");
  std::uint64_t warm_total = 0;
  for (const auto& [k, v] : again.pairs) warm_total += v;
  EXPECT_EQ(warm_total, input.size());
  std::remove(cache.c_str());
}

// Heavy synthetic workload (expensive per-record combine carried in the
// value): the empirical rule must commit the pipelined plan, and the plan
// report must be written.
TEST(AdaptE2E, HeavyWorkloadCommitsPipelined) {
  const std::string cache = temp_path("adapt_heavy.json");
  const std::string report = temp_path("adapt_heavy_report.json");
  std::remove(cache.c_str());
  std::remove(report.c_str());
  RuntimeConfig cfg = adaptive_config(cache);
  cfg.adapt_report_path = report;

  synth::SynthParams params;
  params.map_kind = synth::WorkKind::kCpu;
  params.map_intensity = 60;
  params.combine_kind = synth::WorkKind::kCpu;
  params.combine_intensity = 2000;
  params.elements = 3000;
  params.keys = 32;
  params.split_elements = 12;  // 250 splits; probes use at most half
  params.arena_bytes = 1 << 16;
  synth::SynthApp app;
  app.container_keys = params.keys;

  core::Runtime<synth::SynthApp> runtime(topo::host(), cfg);
  const auto result = runtime.run(app, params);

  EXPECT_EQ(result.plan.strategy, "pipelined");
  EXPECT_EQ(result.plan.source, "probe");
  std::uint64_t payload = 0;
  for (const auto& [k, v] : result.pairs) payload += v.payload;
  EXPECT_EQ(payload, synth::synth_expected_payload_sum(params.elements));

  // The ramr-adapt-plan-v1 report documents the decision.
  std::ifstream in(report);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"schema\":\"ramr-adapt-plan-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"strategy\":\"pipelined\""), std::string::npos);
  EXPECT_NE(doc.find("\"source\":\"probe\""), std::string::npos);
  EXPECT_NE(doc.find("\"candidates\":["), std::string::npos);
  std::remove(cache.c_str());
  std::remove(report.c_str());
}

// RAMR_ADAPT=off runs the static plan even on an input that affords the
// probe: no probe, default provenance, and a summary() with no plan
// mention.
TEST(AdaptE2E, OffModeRunsTheStaticPath) {
  RuntimeConfig cfg;
  cfg.adapt_mode = AdaptMode::kOff;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;

  ramr::testing::ModCountApp app;
  std::vector<std::uint64_t> input(16384);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i * 7;

  core::Runtime<ramr::testing::ModCountApp> runtime(topo::host(), cfg);
  ASSERT_TRUE(probe_affordable(runtime.config(), app.num_splits(input)));
  const auto result = runtime.run(app, input);
  EXPECT_EQ(result.plan.strategy, "pipelined");
  EXPECT_EQ(result.plan.source, "default");
  EXPECT_FALSE(result.plan.decided());
  EXPECT_EQ(result.summary().find("plan="), std::string::npos);
}

// HG combines in its map: the plan is fused at compile time, so a cold
// run_adaptive call spends no input on probing and writes no cache entry,
// on an input large enough that a non-trait app would probe.
// (core::Runtime does not enter the controller for a trait app at all.)
TEST(AdaptE2E, TraitAppSkipsProbeAndCache) {
  const std::string cache = temp_path("adapt_trait.json");
  const std::string report = temp_path("adapt_trait_report.json");
  std::remove(cache.c_str());
  std::remove(report.c_str());
  RuntimeConfig cfg;
  cfg.plan_cache_path = cache;
  cfg.adapt_report_path = report;
  cfg.pin_policy = PinPolicy::kOsDefault;
  using App = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput input{apps::make_pixels(256 * 1024, 7), 1024};

  const auto result = run_adaptive(topo::host(), cfg, App{}, input);
  EXPECT_EQ(result.plan.strategy, "fused");
  EXPECT_EQ(result.plan.source, "trait");
  const std::map<std::uint64_t, std::uint64_t> got(result.pairs.begin(),
                                                   result.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(input));
  EXPECT_FALSE(std::ifstream(cache).good());

  std::ifstream in(report);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"probe_splits_used\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"source\":\"trait\""), std::string::npos);
  std::remove(report.c_str());
}

// Inputs too small to afford the calibration budget skip probing and run
// the static plan (correctness first, adaptivity only when affordable).
TEST(AdaptE2E, TinyInputSkipsProbing) {
  const std::string cache = temp_path("adapt_tiny.json");
  std::remove(cache.c_str());
  const RuntimeConfig cfg = adaptive_config(cache);

  ramr::testing::ModCountApp app;
  std::vector<std::uint64_t> input(96);  // 2 splits at chunk 64
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;

  core::Runtime<ramr::testing::ModCountApp> runtime(topo::host(), cfg);
  const auto result = runtime.run(app, input);
  EXPECT_EQ(result.plan.source, "default");  // no probe, nothing cached
  std::uint64_t total = 0;
  for (const auto& [k, v] : result.pairs) total += v;
  EXPECT_EQ(total, input.size());
  EXPECT_FALSE(PlanCache(cache).lookup(PlanKey{
      app_label<ramr::testing::ModCountApp>(),
      input_size_bucket(app.num_splits(input)),
      topology_hash(topo::host())}).has_value());
  std::remove(cache.c_str());
}

// ---- the default config: RAMR_ADAPT=probe -----------------------------------
//
// These tests do not assert which strategy the probe picks: under Debug and
// the sanitizers the CPU-per-record verdict can flip. The AdaptE2E verdict
// tests above own that.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// 128 splits of 2 KiB: affords the probe budget of the default config.
apps::TextInput big_text() {
  return apps::TextInput{apps::make_text(256 * 1024, 500, 3), 2048};
}

template <typename Pairs>
void expect_wordcount(const Pairs& pairs, const apps::TextInput& input) {
  const auto reference = apps::wordcount_reference(input);
  ASSERT_EQ(pairs.size(), reference.size());
  for (const auto& [k, v] : pairs) EXPECT_EQ(reference.at(k), v) << k;
}

TEST(AdaptDefault, BigWordCountIsDecidedThenServedFromMemory) {
  using App = apps::WordCountApp<apps::ContainerFlavor::kDefault>;
  const RuntimeConfig cfg;
  ASSERT_EQ(cfg.adapt_mode, AdaptMode::kProbe);
  ASSERT_TRUE(cfg.plan_cache_path.empty());
  const App app;
  const apps::TextInput input = big_text();

  core::Runtime<App> runtime(topo::host(), cfg);
  ASSERT_TRUE(probe_affordable(runtime.config(), app.num_splits(input)));
  const auto cold = runtime.run(app, input);
  EXPECT_TRUE(cold.plan.decided());
  EXPECT_EQ(cold.plan.source, "probe");
  expect_wordcount(cold.pairs, input);

  // Same Runtime, same size bucket: the plan comes from its memory.
  const auto warm = runtime.run(app, input);
  EXPECT_EQ(warm.plan.source, "cache");
  EXPECT_EQ(warm.plan.strategy, cold.plan.strategy);
  expect_wordcount(warm.pairs, input);
}

// A trait app and an under-budget input build no plan cache: a file the
// config names is neither read into a plan nor rewritten.
TEST(AdaptDefault, TraitAndSmallRunsLeaveThePlanCacheFileAlone) {
  const std::string cache = temp_path("adapt_untouched.json");
  const std::string corrupt = "{\"plans\": [not json at all";
  {
    std::ofstream out(cache, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  RuntimeConfig cfg;
  cfg.plan_cache_path = cache;
  cfg.pin_policy = PinPolicy::kOsDefault;

  using Hg = apps::HistogramApp<apps::ContainerFlavor::kDefault>;
  const apps::PixelInput pixels{apps::make_pixels(256 * 1024, 7), 1024};
  core::Runtime<Hg> hg(topo::host(), cfg);
  const auto traited = hg.run(Hg{}, pixels);
  EXPECT_EQ(traited.plan.source, "trait");
  const std::map<std::uint64_t, std::uint64_t> got(traited.pairs.begin(),
                                                   traited.pairs.end());
  EXPECT_EQ(got, apps::histogram_reference(pixels));
  EXPECT_EQ(read_file(cache), corrupt);

  ramr::testing::ModCountApp app;
  std::vector<std::uint64_t> input(96);  // 2 splits at chunk 64
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = i;
  core::Runtime<ramr::testing::ModCountApp> small(topo::host(), cfg);
  ASSERT_FALSE(probe_affordable(small.config(), app.num_splits(input)));
  const auto result = small.run(app, input);
  EXPECT_EQ(result.plan.source, "default");
  std::uint64_t total = 0;
  for (const auto& [k, v] : result.pairs) total += v;
  EXPECT_EQ(total, input.size());
  EXPECT_EQ(read_file(cache), corrupt);
  std::remove(cache.c_str());
}

// With no plan_cache_path the decided plans stay in memory: a big run
// creates nothing under $HOME or $XDG_CACHE_HOME.
TEST(AdaptDefault, BigRunWritesNothingUnderHome) {
  namespace fs = std::filesystem;
  const fs::path home = temp_path("adapt_home");
  fs::remove_all(home);
  fs::create_directories(home);
  env::ScopedOverride h("HOME", home.string());
  env::ScopedOverride x("XDG_CACHE_HOME", home.string());

  using App = apps::WordCountApp<apps::ContainerFlavor::kDefault>;
  const App app;
  const apps::TextInput input = big_text();
  core::Runtime<App> runtime(topo::host(), RuntimeConfig{});
  const auto result = runtime.run(app, input);
  EXPECT_EQ(result.plan.source, "probe");
  expect_wordcount(result.pairs, input);
  EXPECT_TRUE(fs::is_empty(home));
  fs::remove_all(home);
}

}  // namespace
}  // namespace ramr::adapt
