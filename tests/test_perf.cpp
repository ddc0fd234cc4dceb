// Tests for the perf substrate: counters, the set-associative cache
// simulator, the analytic stall model (including its monotonicity
// properties), and the per-app workload profiles against the paper's
// Fig. 10 characterisation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "perf/cache_model.hpp"
#include "perf/counters.hpp"
#include "perf/profiles.hpp"
#include "perf/stall_model.hpp"

namespace ramr::perf {
namespace {

using apps::AppId;
using apps::ContainerFlavor;

// ---------- counters -----------------------------------------------------------

TEST(Counters, MetricsMatchDefinitions) {
  Counters c;
  c.instructions = 1000;
  c.mem_stall_cycles = 50;
  c.resource_stall_cycles = 20;
  c.input_bytes = 100;
  EXPECT_DOUBLE_EQ(c.ipb(), 10.0);
  EXPECT_DOUBLE_EQ(c.mspi(), 0.05);
  EXPECT_DOUBLE_EQ(c.rspi(), 0.02);
}

TEST(Counters, ZeroDenominatorsAreSafe) {
  Counters c;
  EXPECT_DOUBLE_EQ(c.ipb(), 0.0);
  EXPECT_DOUBLE_EQ(c.mspi(), 0.0);
  EXPECT_DOUBLE_EQ(c.rspi(), 0.0);
}

TEST(Counters, AccumulationAdds) {
  Counters a, b;
  a.instructions = 10;
  a.input_bytes = 5;
  b.instructions = 20;
  b.input_bytes = 5;
  a += b;
  EXPECT_DOUBLE_EQ(a.instructions, 30.0);
  EXPECT_DOUBLE_EQ(a.ipb(), 3.0);
}

// ---------- cache simulator -------------------------------------------------------

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim({.size_bytes = 1000, .line_bytes = 60, .ways = 2}),
               Error);
  EXPECT_THROW(CacheSim({.size_bytes = 0, .line_bytes = 64, .ways = 1}),
               Error);
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheSim, LruEvictionOrder) {
  // 2-way: three lines mapping to the same set evict the least recent.
  CacheSim c({.size_bytes = 2 * 64, .line_bytes = 64, .ways = 2});  // 1 set
  c.access(0);    // A miss
  c.access(64);   // B miss
  c.access(0);    // A hit (A most recent)
  c.access(128);  // C miss, evicts B
  EXPECT_TRUE(c.access(0));     // A still resident
  EXPECT_FALSE(c.access(64));   // B was evicted
}

TEST(CacheSim, WorkingSetLargerThanCacheThrashes) {
  CacheSim c({.size_bytes = 8 * 1024, .line_bytes = 64, .ways = 4});
  // Two sequential passes over 4x the capacity: second pass still misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64) c.access(a);
  }
  EXPECT_GT(c.miss_rate(), 0.9);
}

TEST(CacheSim, WorkingSetWithinCacheHitsAfterWarmup) {
  CacheSim c({.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 8});
  for (std::uint64_t a = 0; a < 16 * 1024; a += 64) c.access(a);  // warm
  c.flush();
  // flush() clears stats AND contents; warm again, then measure.
  for (std::uint64_t a = 0; a < 16 * 1024; a += 64) c.access(a);
  const std::uint64_t cold_misses = c.misses();
  for (int pass = 0; pass < 9; ++pass) {
    for (std::uint64_t a = 0; a < 16 * 1024; a += 64) c.access(a);
  }
  EXPECT_EQ(c.misses(), cold_misses);  // no capacity misses afterwards
}

TEST(CacheHierarchy, MissFallsThroughLevels) {
  CacheHierarchy h({{.size_bytes = 1024, .line_bytes = 64, .ways = 2},
                    {.size_bytes = 8192, .line_bytes = 64, .ways = 4}});
  EXPECT_EQ(h.access(0), 2u);  // cold: misses both levels
  EXPECT_EQ(h.access(0), 0u);  // L1 hit
  // Touch enough lines to evict line 0 from L1 but not from L2.
  for (std::uint64_t a = 64; a <= 2048; a += 64) h.access(a);
  EXPECT_EQ(h.access(0), 1u);  // L1 miss, L2 hit
}

// ---------- analytic stall model: property tests ----------------------------------

MemSystemView haswell_like() {
  return MemSystemView{};  // defaults model one Haswell thread
}

PhaseProfile base_profile() {
  return PhaseProfile{.instr_per_byte = 10.0,
                      .bytes_per_byte = 4.0,
                      .footprint_bytes = 1e6,
                      .regularity = 0.3,
                      .resource_pressure = 0.4};
}

TEST(StallModel, BiggerFootprintNeverReducesStalls) {
  const auto mem = haswell_like();
  double prev = -1.0;
  for (double fp : {1e4, 1e5, 1e6, 1e7, 1e8}) {
    PhaseProfile p = base_profile();
    p.footprint_bytes = fp;
    const double stall = estimate_phase(p, 1e6, mem).mem_stall_cycles;
    EXPECT_GE(stall, prev) << "footprint " << fp;
    prev = stall;
  }
}

TEST(StallModel, MoreRegularAccessNeverIncreasesStalls) {
  const auto mem = haswell_like();
  double prev = 1e30;
  for (double reg : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    PhaseProfile p = base_profile();
    p.regularity = reg;
    const double stall = estimate_phase(p, 1e6, mem).mem_stall_cycles;
    EXPECT_LE(stall, prev) << "regularity " << reg;
    prev = stall;
  }
}

TEST(StallModel, InOrderCoreStallsAtLeastAsMuch) {
  MemSystemView ooo = haswell_like();
  MemSystemView in_order = ooo;
  in_order.out_of_order = false;
  const PhaseProfile p = base_profile();
  EXPECT_GE(estimate_phase(p, 1e6, in_order).mem_stall_cycles,
            estimate_phase(p, 1e6, ooo).mem_stall_cycles);
}

TEST(StallModel, FitsInL1MeansNoMemoryStalls) {
  PhaseProfile p = base_profile();
  p.footprint_bytes = 16e3;  // inside the 32KB L1 view
  EXPECT_DOUBLE_EQ(estimate_phase(p, 1e6, haswell_like()).mem_stall_cycles,
                   0.0);
}

TEST(StallModel, ResourceStallsScaleWithPressure) {
  const auto mem = haswell_like();
  PhaseProfile lo = base_profile();
  lo.resource_pressure = 0.1;
  PhaseProfile hi = base_profile();
  hi.resource_pressure = 0.8;
  EXPECT_LT(estimate_phase(lo, 1e6, mem).resource_stall_cycles,
            estimate_phase(hi, 1e6, mem).resource_stall_cycles);
}

TEST(StallModel, CountersScaleLinearlyWithInput) {
  const auto mem = haswell_like();
  const PhaseProfile p = base_profile();
  const Counters c1 = estimate_phase(p, 1e6, mem);
  const Counters c2 = estimate_phase(p, 2e6, mem);
  EXPECT_NEAR(c2.instructions, 2.0 * c1.instructions, 1e-6);
  EXPECT_NEAR(c2.mem_stall_cycles, 2.0 * c1.mem_stall_cycles, 1e-6);
}

TEST(StallModel, AgreesQualitativelyWithCacheSim) {
  // Random access over a footprint 8x the only cache level: the analytic
  // model and the simulator must both report heavy missing; a footprint
  // inside the cache must report (near) none.
  const CacheConfig cache{.size_bytes = 32 * 1024, .line_bytes = 64,
                          .ways = 8};
  MemSystemView view;
  view.l1_bytes = 32e3;
  view.l2_bytes = 32e3;  // collapse to one effective level
  view.l3_bytes = 0.0;
  view.out_of_order = false;

  for (const double fp : {16e3, 256e3}) {
    CacheSim sim(cache);
    Xoshiro256 rng(5);
    for (int i = 0; i < 50000; ++i) {
      sim.access(rng.below(static_cast<std::uint64_t>(fp)));
    }
    PhaseProfile p;
    p.footprint_bytes = fp;
    p.regularity = 0.0;
    p.bytes_per_byte = 64.0;  // one line per byte
    const double model_stall =
        estimate_phase(p, 1000.0, view).mem_stall_cycles;
    if (fp <= static_cast<double>(cache.size_bytes)) {
      EXPECT_LT(sim.miss_rate(), 0.05);
      EXPECT_DOUBLE_EQ(model_stall, 0.0);
    } else {
      EXPECT_GT(sim.miss_rate(), 0.6);
      EXPECT_GT(model_stall, 0.0);
    }
  }
}

TEST(StallModel, TraceDrivenValidationOfTheCapacityModel) {
  // Validate the analytic model's capacity/hierarchy component against the
  // real set-associative simulator: for every suite app's combine
  // footprint, drive a RANDOM trace (regularity 0 — the simulator has no
  // prefetcher, so the streaming/prefetch part of the model is out of
  // scope here) through a Haswell-like 3-level hierarchy and compare
  // latency-weighted per-access costs. The model must (a) rank footprints
  // like the simulator and (b) agree within 2x wherever both see stalls.
  MemSystemView view;
  view.l3_bytes = 32e6;       // power-of-two-friendly stand-in for 35MB
  view.out_of_order = false;  // compare raw costs, no OoO hiding

  struct Sample {
    const char* name;
    double model_cost;
    double sim_cost;
  };
  std::vector<Sample> samples;
  for (AppId app : apps::kAllApps) {
    PhaseProfile prof = app_profile(app, ContainerFlavor::kDefault).combine;
    prof.regularity = 0.0;
    CacheHierarchy caches(
        {{.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 8},
         {.size_bytes = 256 * 1024, .line_bytes = 64, .ways = 8},
         {.size_bytes = 32 * 1024 * 1024, .line_bytes = 64, .ways = 16}});
    Xoshiro256 rng(static_cast<std::uint64_t>(app) + 1);
    const auto footprint = static_cast<std::uint64_t>(prof.footprint_bytes);
    const double level_cost[] = {0.0, view.l2_latency, view.l3_latency,
                                 view.mem_latency};
    double sim_cycles = 0.0;
    const std::int64_t kAccesses = 60000;
    // Warm until the random trace has covered the footprint a few times
    // over, so compulsory misses don't masquerade as capacity misses.
    const std::int64_t warmup =
        std::max<std::int64_t>(20000, 4 * static_cast<std::int64_t>(
                                              footprint / 64));
    for (std::int64_t i = 0; i < kAccesses + warmup; ++i) {
      const std::size_t level = caches.access(rng.below(footprint));
      if (i >= warmup) sim_cycles += level_cost[level];
    }
    samples.push_back({apps::app_name(app),
                       expected_stall_per_line(prof, view),
                       sim_cycles / kAccesses});
  }
  for (std::size_t a = 0; a < samples.size(); ++a) {
    for (std::size_t b = a + 1; b < samples.size(); ++b) {
      const double dm = samples[a].model_cost - samples[b].model_cost;
      const double ds = samples[a].sim_cost - samples[b].sim_cost;
      // (a) comparative order agrees (ties allowed when close).
      if (std::abs(dm) > 2.0 && std::abs(ds) > 2.0) {
        EXPECT_GT(dm * ds, 0.0)
            << samples[a].name << " vs " << samples[b].name;
      }
    }
    // (b) rough magnitude agreement where stalls are non-trivial.
    if (samples[a].sim_cost > 5.0) {
      EXPECT_GT(samples[a].model_cost, samples[a].sim_cost / 2.5)
          << samples[a].name;
      EXPECT_LT(samples[a].model_cost, samples[a].sim_cost * 2.5)
          << samples[a].name;
    }
  }
}

// ---------- app profiles vs the paper's Fig. 10 -----------------------------------

double fused_ipb(AppId app, ContainerFlavor f) {
  const AppProfile p = app_profile(app, f);
  return p.map.instr_per_byte + p.combine.instr_per_byte;
}

TEST(Profiles, DefaultIpbOrderingMatchesFig10a) {
  using enum AppId;
  const auto f = ContainerFlavor::kDefault;
  EXPECT_GT(fused_ipb(kPca, f), fused_ipb(kMatrixMultiply, f));
  EXPECT_GT(fused_ipb(kMatrixMultiply, f), fused_ipb(kKMeans, f));
  EXPECT_GT(fused_ipb(kKMeans, f), fused_ipb(kLinearRegression, f));
  EXPECT_GT(fused_ipb(kWordCount, f), fused_ipb(kLinearRegression, f));
  EXPECT_GT(fused_ipb(kLinearRegression, f), fused_ipb(kHistogram, f));
}

TEST(Profiles, HashFlavorRaisesIpbExceptWordCount) {
  // Fig. 10b: "an increase in the IPB ... is expected. WC is a reasonable
  // exception" (its default container is already a hash table).
  for (AppId app : apps::kAllApps) {
    const double d = fused_ipb(app, ContainerFlavor::kDefault);
    const double h = fused_ipb(app, ContainerFlavor::kHash);
    if (app == AppId::kWordCount) {
      EXPECT_NEAR(h, d, 0.15 * d);
    } else {
      EXPECT_GT(h, d);
    }
  }
}

TEST(Profiles, LightAppsAreLight) {
  // HG and LR: light workload, streaming map (Sec. IV-E).
  for (AppId app : {AppId::kHistogram, AppId::kLinearRegression}) {
    const AppProfile p = app_profile(app, ContainerFlavor::kDefault);
    EXPECT_LT(p.map.instr_per_byte, 10.0);
    EXPECT_GT(p.map.regularity, 0.9);
  }
}

TEST(Profiles, PcaHasSufficientComplexityButFewStalls) {
  const AppProfile p = app_profile(AppId::kPca, ContainerFlavor::kDefault);
  EXPECT_GT(p.map.instr_per_byte, 100.0);
  EXPECT_LT(p.map.resource_pressure, 0.1);
  EXPECT_GT(p.map.regularity, 0.9);
}

TEST(Profiles, MmHashShrinksContainer) {
  // Sec. IV-E: switching MM to the hash table right-sizes the container.
  EXPECT_LT(app_profile(AppId::kMatrixMultiply, ContainerFlavor::kHash)
                .combine.footprint_bytes,
            app_profile(AppId::kMatrixMultiply, ContainerFlavor::kDefault)
                .combine.footprint_bytes);
}

TEST(Profiles, EmissionTrafficMatchesApps) {
  // The paper's HG emits one record per byte; LR five per 4-byte point.
  // (The native apps combine in-map; the simulator keeps the paper's
  // light-case traffic.)
  EXPECT_DOUBLE_EQ(
      app_profile(AppId::kHistogram, ContainerFlavor::kDefault).kv_per_byte,
      1.0);
  EXPECT_DOUBLE_EQ(app_profile(AppId::kLinearRegression,
                               ContainerFlavor::kDefault)
                       .kv_per_byte,
                   1.25);
}

}  // namespace
}  // namespace ramr::perf
