// Tests for the platform simulator: machine presets, model invariants, and
// figure-shape assertions (who wins, where crossovers fall) against the
// paper's evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/machine.hpp"
#include "sim/model.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/workload.hpp"

namespace ramr::sim {
namespace {

using apps::AppId;
using apps::ContainerFlavor;
using apps::PlatformId;
using apps::SizeClass;

SimWorkload hwl_workload(AppId app,
                         ContainerFlavor f = ContainerFlavor::kDefault) {
  return suite_workload(app, f, PlatformId::kHaswell, SizeClass::kLarge);
}
SimWorkload phi_workload(AppId app,
                         ContainerFlavor f = ContainerFlavor::kDefault) {
  return suite_workload(app, f, PlatformId::kXeonPhi, SizeClass::kLarge);
}

double speedup(const SimMachine& m, const SimWorkload& w,
               std::size_t batch) {
  RamrConfig base;
  base.batch = batch;
  return ramr_speedup(m, w, tuned_config(m, w, base));
}

// ---------- machines ------------------------------------------------------------

TEST(Machine, PresetsMatchPaperSystems) {
  const SimMachine h = haswell();
  EXPECT_EQ(h.topology.num_logical(), 56u);
  EXPECT_TRUE(h.out_of_order);
  EXPECT_GT(h.l3_bytes, 0.0);
  const SimMachine p = xeon_phi();
  EXPECT_EQ(p.topology.num_logical(), 228u);
  EXPECT_FALSE(p.out_of_order);
  EXPECT_DOUBLE_EQ(p.l3_bytes, 0.0);
  EXPECT_TRUE(p.topology.uniform_l2());
  // Ring: inter-core transfers cost the same regardless of "distance".
  EXPECT_DOUBLE_EQ(p.comm_line_same_socket, p.comm_line_cross_socket);
}

TEST(Machine, WhatIfPresetsAreConsistent) {
  const SimMachine scaled = haswell_scaled(2, 28, 2);
  EXPECT_EQ(scaled.topology.num_logical(), 112u);
  EXPECT_GT(scaled.l3_bytes, haswell().l3_bytes);  // scales with cores
  EXPECT_TRUE(scaled.out_of_order);

  const SimMachine knl = knights_landing();
  EXPECT_EQ(knl.topology.num_logical(), 256u);
  EXPECT_TRUE(knl.out_of_order);  // the generational difference vs KNC
  EXPECT_TRUE(knl.topology.uniform_l2());
  EXPECT_GT(knl.socket_mem_bw_gbps, xeon_phi().socket_mem_bw_gbps);
}

// ---------- workloads --------------------------------------------------------------

TEST(Workload, InputBytesMatchTable1) {
  // WC large on Haswell: 1.6GB of text.
  const auto wc = hwl_workload(AppId::kWordCount);
  EXPECT_NEAR(wc.input_bytes, 1.6 * 1024 * 1024 * 1024, 3e7);
  // KM large: 2M points x 12 bytes.
  const auto km = hwl_workload(AppId::kKMeans);
  EXPECT_DOUBLE_EQ(km.input_bytes, 2e6 * 12);
  // MM large: two 4000x4000 double matrices.
  const auto mm = hwl_workload(AppId::kMatrixMultiply);
  EXPECT_DOUBLE_EQ(mm.input_bytes, 2.0 * 4000 * 4000 * 8);
}

TEST(Workload, SynthProfileTracksKnobs) {
  synth::SynthParams p;
  p.map_kind = synth::WorkKind::kCpu;
  p.map_intensity = 100;
  p.combine_kind = synth::WorkKind::kMemory;
  p.combine_intensity = 10;
  const SimWorkload w = synth_workload(p);
  EXPECT_GT(w.profile.map.instr_per_byte, 100.0);
  EXPECT_GT(w.profile.map.regularity, 0.9);
  EXPECT_LT(w.profile.combine.regularity, 0.1);
  synth::SynthParams heavier = p;
  heavier.combine_intensity = 100;
  EXPECT_GT(synth_workload(heavier).profile.combine.bytes_per_byte,
            w.profile.combine.bytes_per_byte);
}

// ---------- model invariants ---------------------------------------------------------

TEST(Model, RejectsBadConfigs) {
  const SimMachine m = haswell();
  const SimWorkload w = hwl_workload(AppId::kKMeans);
  RamrConfig bad;
  bad.ratio = 0;
  EXPECT_THROW(simulate_ramr(m, w, bad), ConfigError);
  bad.ratio = 2;
  bad.batch = 0;
  EXPECT_THROW(simulate_ramr(m, w, bad), ConfigError);
  bad.batch = 10000;
  bad.queue_capacity = 5000;
  EXPECT_THROW(simulate_ramr(m, w, bad), ConfigError);
}

TEST(Model, TimesArePositiveAndFinite) {
  for (const SimMachine& m : {haswell(), xeon_phi()}) {
    for (AppId app : apps::kAllApps) {
      const SimWorkload w = suite_workload(
          app, ContainerFlavor::kDefault,
          m.out_of_order ? PlatformId::kHaswell : PlatformId::kXeonPhi,
          SizeClass::kSmall);
      const auto base = simulate_phoenix(m, w);
      EXPECT_GT(base.phases.total(), 0.0);
      EXPECT_TRUE(std::isfinite(base.phases.total()));
      const auto ours = simulate_ramr(m, w, RamrConfig{});
      EXPECT_GT(ours.phases.total(), 0.0);
      EXPECT_TRUE(std::isfinite(ours.phases.total()));
    }
  }
}

TEST(Model, MoreInputTakesLonger) {
  const SimMachine m = haswell();
  const auto small = suite_workload(AppId::kKMeans, ContainerFlavor::kDefault,
                                    PlatformId::kHaswell, SizeClass::kSmall);
  const auto large = hwl_workload(AppId::kKMeans);
  EXPECT_LT(simulate_phoenix(m, small).phases.total(),
            simulate_phoenix(m, large).phases.total());
  EXPECT_LT(simulate_ramr(m, small, RamrConfig{}).phases.total(),
            simulate_ramr(m, large, RamrConfig{}).phases.total());
}

TEST(Model, WorkerCountsFillTheMachine) {
  const SimMachine m = haswell();
  RamrConfig cfg;
  cfg.ratio = 3;
  const auto r = simulate_ramr(m, hwl_workload(AppId::kKMeans), cfg);
  EXPECT_EQ(r.num_mappers, 42u);   // 14 groups x 3
  EXPECT_EQ(r.num_combiners, 14u);
  EXPECT_LE(r.num_mappers + r.num_combiners, 56u);
}

// ---------- Fig. 1: run-time breakdown ------------------------------------------------

TEST(Fig1, MapCombineDominatesOnAverage) {
  // Paper: map-combine accounts for 82.4% of run time on average.
  const SimMachine m = haswell();
  double sum = 0.0;
  for (AppId app : apps::kAllApps) {
    sum += simulate_phoenix(m, hwl_workload(app))
               .phases.map_combine_fraction();
  }
  const double avg = sum / 6.0;
  EXPECT_GT(avg, 0.75);
  EXPECT_LT(avg, 0.99);
}

// ---------- Fig. 4: synthetic ratio crossover ------------------------------------------

TEST(Fig4, OptimalRatioFallsAsCombineIntensityGrows) {
  const SimMachine m = haswell();
  auto best_ratio = [&](std::uint64_t combine_intensity) {
    synth::SynthParams p;
    p.map_kind = synth::WorkKind::kCpu;
    p.map_intensity = 24;
    p.combine_kind = synth::WorkKind::kMemory;
    p.combine_intensity = combine_intensity;
    const SimWorkload w = synth_workload(p);
    std::size_t best = 0;
    double best_t = 1e300;
    for (std::size_t ratio : {1u,2u,3u}) {
      RamrConfig c;
      c.ratio = ratio;
      c.batch = 1000;
      const double t = simulate_ramr(m, w, c).phases.total();
      if (t < best_t) {
        best_t = t;
        best = ratio;
      }
    }
    return best;
  };
  const std::size_t light = best_ratio(1);
  const std::size_t heavy = best_ratio(32);
  EXPECT_EQ(light, 3u);  // one combiner keeps up with three mappers
  EXPECT_EQ(heavy, 1u);  // heavy combine: one combiner per mapper
}

TEST(Fig4, RamrBeatsPhoenixOnComplementarySynthetic) {
  const SimMachine m = haswell();
  synth::SynthParams p;
  p.map_kind = synth::WorkKind::kCpu;
  p.map_intensity = 24;
  p.combine_kind = synth::WorkKind::kMemory;
  p.combine_intensity = 8;
  const SimWorkload w = synth_workload(p);
  EXPECT_GT(speedup(m, w, 1000), 1.0);
}

// ---------- Fig. 5: pinning policies -----------------------------------------------------

TEST(Fig5, RamrPolicyBeatsBothBaselinesOnHaswell) {
  const SimMachine m = haswell();
  double sum_rr = 0.0;
  double sum_os = 0.0;
  for (AppId app : apps::kAllApps) {
    const SimWorkload w = hwl_workload(app);
    RamrConfig c = tuned_config(m, w, RamrConfig{.batch = 1000});
    c.pin = PinPolicy::kRamrPaired;
    const double t_ramr = simulate_ramr(m, w, c).phases.total();
    c.pin = PinPolicy::kRoundRobin;
    sum_rr += simulate_ramr(m, w, c).phases.total() / t_ramr;
    c.pin = PinPolicy::kOsDefault;
    sum_os += simulate_ramr(m, w, c).phases.total() / t_ramr;
  }
  const double avg_rr = sum_rr / 6.0;
  const double avg_os = sum_os / 6.0;
  // Paper: 2.28x vs RR, 2.04x vs the Linux scheduler.
  EXPECT_GT(avg_rr, 1.7);
  EXPECT_GT(avg_os, 1.5);
  EXPECT_GT(avg_rr, avg_os);  // Linux does better than naive RR
}

TEST(Fig5, LightAppsBenefitMostFromPinning) {
  // "in HG and LR RAMR is exceptionally faster than the baseline".
  const SimMachine m = haswell();
  auto gain = [&](AppId app) {
    const SimWorkload w = hwl_workload(app);
    RamrConfig c = tuned_config(m, w, RamrConfig{.batch = 1000});
    c.pin = PinPolicy::kRamrPaired;
    const double t = simulate_ramr(m, w, c).phases.total();
    c.pin = PinPolicy::kRoundRobin;
    return simulate_ramr(m, w, c).phases.total() / t;
  };
  EXPECT_GT(gain(AppId::kHistogram), gain(AppId::kMatrixMultiply));
  EXPECT_GT(gain(AppId::kLinearRegression), gain(AppId::kPca));
}

TEST(Fig5, PhiPinningGainsAreMarginal) {
  // Paper: 1-3% on Xeon Phi (ring-shared L2, barrel-scheduled cores).
  const SimMachine m = xeon_phi();
  for (AppId app : apps::kAllApps) {
    const SimWorkload w = phi_workload(app);
    RamrConfig c = tuned_config(m, w, RamrConfig{.batch = 200});
    c.pin = PinPolicy::kRamrPaired;
    const double t_ramr = simulate_ramr(m, w, c).phases.total();
    c.pin = PinPolicy::kRoundRobin;
    const double t_rr = simulate_ramr(m, w, c).phases.total();
    EXPECT_LT(t_rr / t_ramr, 1.10) << apps::app_name(app);
    EXPECT_GT(t_rr / t_ramr, 0.93) << apps::app_name(app);
  }
}

// ---------- Figs. 6/7: batched reads -------------------------------------------------------

TEST(Fig6, BatchingGainsAreLargerOnPhi) {
  // Paper: speedups up to 3.1x on Haswell and up to 11.4x on Xeon Phi.
  auto best_gain = [](const SimMachine& m, const SimWorkload& w) {
    RamrConfig c = tuned_config(m, w, RamrConfig{});
    c.batch = 1;
    const double t1 = simulate_ramr(m, w, c).phases.total();
    double best = t1;
    for (std::size_t b : {10u,100u,500u,1000u,2000u}) {
      c.batch = b;
      best = std::min(best, simulate_ramr(m, w, c).phases.total());
    }
    return t1 / best;
  };
  const double hwl = best_gain(haswell(), hwl_workload(AppId::kHistogram));
  const double phi = best_gain(xeon_phi(), phi_workload(AppId::kHistogram));
  EXPECT_GT(hwl, 2.0);
  EXPECT_LT(hwl, 6.0);
  EXPECT_GT(phi, 6.0);
  EXPECT_GT(phi, hwl);
}

TEST(Fig7, PhiPrefersSmallerBatches) {
  // Paper: Haswell apps profit up to ~1000 elements; Phi optima are 20-500
  // ("much smaller amount of cache capacity per thread").
  auto best_batch = [](const SimMachine& m, const SimWorkload& w) {
    RamrConfig c = tuned_config(m, w, RamrConfig{});
    double best_t = 1e300;
    std::size_t best_b = 1;
    for (std::size_t b : {1u,10u,20u,100u,500u,1000u,2000u,4000u}) {
      c.batch = b;
      const double t = simulate_ramr(m, w, c).phases.total();
      if (t < best_t) {
        best_t = t;
        best_b = b;
      }
    }
    return best_b;
  };
  const std::size_t hwl = best_batch(haswell(), hwl_workload(AppId::kHistogram));
  const std::size_t phi = best_batch(xeon_phi(), phi_workload(AppId::kHistogram));
  EXPECT_LE(phi, 500u);
  EXPECT_LE(phi, hwl);
}

TEST(Fig7, OverDeepBatchesHurt) {
  // The curve is U-shaped: batch == capacity is worse than the optimum.
  const SimMachine m = xeon_phi();
  const SimWorkload w = phi_workload(AppId::kHistogram);
  RamrConfig c = tuned_config(m, w, RamrConfig{});
  c.batch = 500;
  const double mid = simulate_ramr(m, w, c).phases.total();
  c.batch = c.queue_capacity;
  const double deep = simulate_ramr(m, w, c).phases.total();
  EXPECT_GT(deep, mid);
}

// ---------- Figs. 8/9: RAMR vs Phoenix++ ------------------------------------------------------

TEST(Fig8a, HaswellDefaultContainers) {
  const SimMachine m = haswell();
  // KM and MM profit (paper: 1.95x and 1.77x).
  EXPECT_GT(speedup(m, hwl_workload(AppId::kKMeans), 1000), 1.4);
  EXPECT_GT(speedup(m, hwl_workload(AppId::kMatrixMultiply), 1000), 1.2);
  // PCA performs similarly.
  EXPECT_NEAR(speedup(m, hwl_workload(AppId::kPca), 1000), 1.0, 0.15);
  // WC slightly slower; HG and LR outperformed by ~3x / ~3.8x.
  EXPECT_LT(speedup(m, hwl_workload(AppId::kWordCount), 1000), 1.0);
  EXPECT_LT(speedup(m, hwl_workload(AppId::kHistogram), 1000), 0.6);
  EXPECT_LT(speedup(m, hwl_workload(AppId::kLinearRegression), 1000), 0.6);
}

TEST(Fig8b, HaswellHashContainersShiftTowardsRamr) {
  const SimMachine m = haswell();
  int faster = 0;
  double sum = 0.0;
  double mm = 0.0;
  for (AppId app : apps::kAllApps) {
    const double s = speedup(m, hwl_workload(app, ContainerFlavor::kHash), 1000);
    sum += s;
    faster += s > 1.0;
    if (app == AppId::kMatrixMultiply) mm = s;
  }
  // Paper: 5/6 faster, 1.57x average, MM the maximum (2.46x).
  EXPECT_GE(faster, 3);
  EXPECT_GT(sum / 6.0, 1.2);
  EXPECT_GT(mm, 1.5);
}

TEST(Fig9a, PhiDefaultContainers) {
  const SimMachine m = xeon_phi();
  // Paper: WC 1.59x, KM 2.8x, MM 1.52x faster; PCA similar; HG/LR ~2.85x slower.
  EXPECT_GT(speedup(m, phi_workload(AppId::kWordCount), 200), 1.2);
  EXPECT_GT(speedup(m, phi_workload(AppId::kKMeans), 200), 1.8);
  EXPECT_GT(speedup(m, phi_workload(AppId::kMatrixMultiply), 200), 1.0);
  EXPECT_LT(speedup(m, phi_workload(AppId::kHistogram), 200), 0.6);
  EXPECT_LT(speedup(m, phi_workload(AppId::kLinearRegression), 200), 0.6);
}

TEST(Fig9b, PhiHashContainersAverageLargeGain) {
  const SimMachine m = xeon_phi();
  int faster = 0;
  double sum = 0.0;
  for (AppId app : apps::kAllApps) {
    const double s = speedup(m, phi_workload(app, ContainerFlavor::kHash), 200);
    sum += s;
    faster += s > 1.0;
  }
  // Paper: 5/6 faster, 2.6x average, 5.34x max.
  EXPECT_GE(faster, 4);
  EXPECT_GT(sum / 6.0, 1.7);
}

TEST(Fig89, KMeansGainsMoreOnPhiThanHaswell) {
  // Paper: KM 1.95x on Haswell vs 2.8x on Phi.
  EXPECT_GT(speedup(xeon_phi(), phi_workload(AppId::kKMeans), 200),
            speedup(haswell(), hwl_workload(AppId::kKMeans), 1000));
}

// ---------- ablations -------------------------------------------------------------------------

TEST(Ablation, SleepOnFullBeatsBusyWaitWhenCombinerLimited) {
  // HG hash on Haswell is combiner-limited: spinning mappers must hurt.
  const SimMachine m = haswell();
  const SimWorkload w = hwl_workload(AppId::kHistogram, ContainerFlavor::kHash);
  RamrConfig c;
  c.ratio = 2;
  c.batch = 1000;
  c.sleep_on_full = true;
  const double asleep = simulate_ramr(m, w, c).phases.total();
  c.sleep_on_full = false;
  const double spinning = simulate_ramr(m, w, c).phases.total();
  EXPECT_GT(spinning, asleep);
}

TEST(Ablation, QueueCapacityNearPaperDefaultIsNearOptimal) {
  // Paper Sec. III-A: 5000 elements is within 2% of optimal.
  const SimMachine m = haswell();
  const SimWorkload w = hwl_workload(AppId::kKMeans);
  RamrConfig c = tuned_config(m, w, RamrConfig{.batch = 256});
  c.queue_capacity = 5000;
  const double t5000 = simulate_ramr(m, w, c).phases.total();
  double best = t5000;
  for (std::size_t cap : {1000u,2000u,10000u,20000u,50000u}) {
    c.queue_capacity = cap;
    best = std::min(best, simulate_ramr(m, w, c).phases.total());
  }
  EXPECT_LT((t5000 - best) / best, 0.05);
}

// ---------- transient pipeline simulation ------------------------------------------------

TEST(Transient, ConservesRecordsAndDrainsCompletely) {
  const SimMachine m = haswell();
  const auto w = suite_workload(AppId::kKMeans, ContainerFlavor::kDefault,
                                PlatformId::kHaswell, SizeClass::kSmall);
  RamrConfig cfg;
  cfg.ratio = 2;
  cfg.batch = 256;
  const auto t = simulate_ramr_transient(m, w, cfg);
  EXPECT_GT(t.seconds, 0.0);
  EXPECT_NEAR(t.records_produced, t.records_consumed,
              1e-6 * t.records_produced + 1e-6);
  EXPECT_LE(t.max_depth, static_cast<double>(cfg.queue_capacity) + 1e-9);
}

TEST(Transient, AgreesWithSteadyStateMakespan) {
  const SimMachine m = haswell();
  for (AppId app : {AppId::kKMeans, AppId::kHistogram, AppId::kWordCount}) {
    const auto w = suite_workload(app, ContainerFlavor::kDefault,
                                  PlatformId::kHaswell, SizeClass::kSmall);
    RamrConfig cfg = tuned_config(m, w, RamrConfig{.batch = 500});
    const double steady = simulate_ramr(m, w, cfg).phases.map_combine;
    const double transient = simulate_ramr_transient(m, w, cfg).seconds;
    EXPECT_NEAR(transient, steady, 0.30 * steady) << apps::app_name(app);
  }
}

TEST(Transient, TinyQueueCausesBlocking) {
  const SimMachine m = haswell();
  // HG is combiner-limited: with a tiny ring the producers must block.
  const auto w = suite_workload(AppId::kHistogram, ContainerFlavor::kHash,
                                PlatformId::kHaswell, SizeClass::kSmall);
  RamrConfig small;
  small.ratio = 2;
  small.queue_capacity = 16;
  small.batch = 8;
  RamrConfig big = small;
  big.queue_capacity = 50000;
  big.batch = 8;
  const auto ts = simulate_ramr_transient(m, w, small);
  const auto tb = simulate_ramr_transient(m, w, big);
  EXPECT_LT(ts.mapper_busy_fraction, 1.0);
  EXPECT_LT(ts.mapper_busy_fraction, tb.mapper_busy_fraction + 0.05);
  EXPECT_LE(ts.max_depth, 16.0 + 1e-9);
}

TEST(Transient, MapperLimitedPipelineHasIdleCombiner) {
  const SimMachine m = haswell();
  // PCA is map-dominated: the combiner should be idle much of the time,
  // and the queues should stay shallow.
  const auto w = suite_workload(AppId::kPca, ContainerFlavor::kDefault,
                                PlatformId::kHaswell, SizeClass::kSmall);
  RamrConfig cfg;
  cfg.ratio = 1;
  cfg.batch = 100;
  const auto t = simulate_ramr_transient(m, w, cfg);
  EXPECT_LT(t.combiner_busy_fraction, 0.95);
  EXPECT_LT(t.mean_depth, static_cast<double>(cfg.queue_capacity) * 0.5);
  EXPECT_GT(t.mapper_busy_fraction, 0.9);
}

TEST(Transient, DepthSeriesIsSampled) {
  const SimMachine m = haswell();
  const auto w = suite_workload(AppId::kHistogram, ContainerFlavor::kDefault,
                                PlatformId::kHaswell, SizeClass::kSmall);
  const auto t = simulate_ramr_transient(m, w, RamrConfig{});
  EXPECT_GT(t.depth_series.size(), 10u);
  EXPECT_GT(t.sample_period_seconds, 0.0);
}

TEST(TunedConfig, PrefersLargerRatioWhenCombinerIsCheap) {
  const SimMachine m = haswell();
  const auto cfg = tuned_config(m, hwl_workload(AppId::kPca), RamrConfig{});
  EXPECT_GE(cfg.ratio, 3u);
}

}  // namespace
}  // namespace ramr::sim
