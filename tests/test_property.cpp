// Property and torture tests: randomized interleavings on the SPSC ring,
// container fuzzing against std::map, pinning-plan properties over a grid
// of machine shapes, randomized runtime-knob fuzzing, and the full 24-cell
// figure grid of the simulator.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "containers/fixed_array_container.hpp"
#include "containers/hash_container.hpp"
#include "core/runtime.hpp"
#include "mini_apps.hpp"
#include "sim/model.hpp"
#include "spsc/ring.hpp"
#include "topology/pinning.hpp"

namespace ramr {
namespace {

// ---------- SPSC ring: randomized interleavings --------------------------------

class RingTorture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingTorture, RandomizedBurstsPreserveSequence) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  spsc::Ring<std::uint64_t> ring(2 + rng.below(200));
  const std::uint64_t total = 30000;

  std::uint64_t consumer_seed = rng.next();
  std::thread consumer([&ring, consumer_seed, total] {
    Xoshiro256 crng(consumer_seed);
    std::uint64_t expected = 0;
    while (expected < total) {
      const std::size_t batch = 1 + crng.below(64);
      const bool use_batch = crng.below(2) == 0;
      std::size_t got = 0;
      if (use_batch) {
        got = ring.consume_batch(
            [&](std::span<std::uint64_t> block) {
              for (std::uint64_t v : block) {
                ASSERT_EQ(v, expected) << "seed " << consumer_seed;
                ++expected;
              }
            },
            batch);
      } else {
        std::uint64_t out;
        if (ring.try_pop(out)) {
          ASSERT_EQ(out, expected);
          ++expected;
          got = 1;
        }
      }
      if (got == 0) std::this_thread::yield();
    }
  });

  std::uint64_t next = 0;
  while (next < total) {
    const std::uint64_t burst = 1 + rng.below(128);
    for (std::uint64_t i = 0; i < burst && next < total; ++i) {
      while (!ring.try_push(std::uint64_t{next})) std::this_thread::yield();
      ++next;
    }
    if (rng.below(4) == 0) std::this_thread::yield();
  }
  ring.close();
  consumer.join();
  EXPECT_EQ(ring.producer_stats().pushes, total);
  EXPECT_EQ(ring.consumer_stats().pops, total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingTorture,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- containers: operation fuzz vs std::map --------------------------------

class ContainerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContainerFuzz, RegularHashMatchesStdMapUnderMixedOps) {
  Xoshiro256 rng(GetParam());
  containers::HashContainer<std::uint64_t, std::uint64_t,
                            containers::CountCombiner>
      c(8);
  std::map<std::uint64_t, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 90) {
      const std::uint64_t k = rng.below(1 + rng.below(5000));
      const std::uint64_t v = rng.below(7);
      c.emit(k, v);
      ref[k] += v;
    } else if (roll < 95) {
      // Merge a small second container built from the same stream.
      containers::HashContainer<std::uint64_t, std::uint64_t,
                                containers::CountCombiner>
          other(8);
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t k = rng.below(5000);
        other.emit(k, 1);
        ref[k] += 1;
      }
      c.merge_from(other);
    } else if (roll < 97) {
      c.clear();
      ref.clear();
    } else {
      const std::uint64_t k = rng.below(5000);
      EXPECT_EQ(c.contains(k), ref.count(k) == 1);
    }
  }
  EXPECT_EQ(c.size(), ref.size());
  const auto pairs = containers::to_sorted_pairs(c);
  auto it = ref.begin();
  for (const auto& [k, v] : pairs) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST_P(ContainerFuzz, FixedArrayMatchesStdMap) {
  Xoshiro256 rng(GetParam() ^ 0xabcdef);
  constexpr std::size_t kKeys = 257;
  containers::FixedArrayContainer<std::int64_t,
                                  containers::SumCombiner<std::int64_t>>
      c(kKeys);
  std::map<std::size_t, std::int64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t k = rng.below(kKeys);
    const auto v = static_cast<std::int64_t>(rng.below(100)) - 50;
    c.emit(k, v);
    ref[k] += v;
  }
  EXPECT_EQ(c.size(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_EQ(c.at(k), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainerFuzz, ::testing::Values(11, 22, 33));

// ---------- topology/pinning over a grid of machine shapes -------------------------

struct Shape {
  std::size_t sockets;
  std::size_t cores;
  std::size_t smt;
};

class TopologyGrid : public ::testing::TestWithParam<Shape> {
 protected:
  static topo::Topology make(const Shape& s) {
    std::vector<topo::LogicalCpu> cpus;
    std::size_t id = 0;
    for (std::size_t t = 0; t < s.smt; ++t) {
      for (std::size_t so = 0; so < s.sockets; ++so) {
        for (std::size_t c = 0; c < s.cores; ++c) {
          cpus.push_back({.os_id = id++,
                          .socket = so,
                          .core = so * s.cores + c,
                          .smt = t});
        }
      }
    }
    return topo::Topology("grid", std::move(cpus));
  }
};

TEST_P(TopologyGrid, ProximityOrderIsPermutationWithAdjacentSiblings) {
  const Shape s = GetParam();
  const topo::Topology t = make(s);
  const auto order = t.proximity_order();
  std::set<std::size_t> unique(order.begin(), order.end());
  ASSERT_EQ(unique.size(), t.num_logical());
  // Within the order, every run of `smt` consecutive entries shares a core.
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (i % s.smt != s.smt - 1) {
      EXPECT_EQ(t.distance(order[i], order[i + 1]),
                topo::Distance::kSameCore);
    }
  }
}

TEST_P(TopologyGrid, PairedPlanNeverWorseThanRoundRobin) {
  const Shape s = GetParam();
  const topo::Topology t = make(s);
  Xoshiro256 rng(s.sockets * 100 + s.cores * 10 + s.smt);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t combiners = 1 + rng.below(t.num_logical() / 4 + 1);
    const std::size_t max_mappers = t.num_logical() - combiners;
    if (max_mappers < combiners) continue;
    const std::size_t mappers =
        combiners + rng.below(max_mappers - combiners + 1);
    const auto paired =
        topo::make_plan(t, PinPolicy::kRamrPaired, mappers, combiners);
    const auto rr =
        topo::make_plan(t, PinPolicy::kRoundRobin, mappers, combiners);
    EXPECT_LE(paired.mean_pair_distance(t), rr.mean_pair_distance(t) + 1e-9)
        << "m=" << mappers << " c=" << combiners;
    // Both plans use disjoint CPU sets of the right size.
    for (const auto& plan : {paired, rr}) {
      std::set<std::size_t> used(plan.mapper_cpu.begin(),
                                 plan.mapper_cpu.end());
      used.insert(plan.combiner_cpu.begin(), plan.combiner_cpu.end());
      EXPECT_EQ(used.size(), mappers + combiners);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyGrid,
                         ::testing::Values(Shape{1, 4, 1}, Shape{1, 4, 2},
                                           Shape{2, 4, 2}, Shape{2, 14, 2},
                                           Shape{1, 57, 4}, Shape{4, 8, 2}));

// ---------- runtime knob fuzz --------------------------------------------------------

class KnobFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnobFuzz, RandomConfigsAlwaysProduceTheReferenceResult) {
  Xoshiro256 rng(GetParam());
  const testing::ModCountApp app;
  const auto input = testing::make_numbers(4000 + rng.below(4000), rng.next());
  const auto ref = app.reference(input);
  for (int trial = 0; trial < 5; ++trial) {
    RuntimeConfig cfg;
    cfg.num_mappers = 1 + rng.below(5);
    cfg.num_combiners = 1 + rng.below(cfg.num_mappers);
    cfg.queue_capacity = 2 + rng.below(2000);
    cfg.batch_size = 1 + rng.below(cfg.queue_capacity);
    cfg.task_size = 1 + rng.below(16);
    cfg.pin_policy = PinPolicy::kOsDefault;
    core::Runtime<testing::ModCountApp> rt(topo::host(), cfg);
    EXPECT_TRUE(testing::pairs_match(rt.run(app, input).pairs, ref))
        << "seed " << GetParam() << " trial " << trial << " cfg "
        << cfg.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnobFuzz, ::testing::Values(101, 202, 303));

// ---------- the full 24-cell figure grid ----------------------------------------------

struct GridCell {
  apps::AppId app;
  apps::ContainerFlavor flavor;
  apps::PlatformId platform;
  bool ramr_wins;  // paper's verdict for this cell
};

class FigureGrid : public ::testing::TestWithParam<GridCell> {};

TEST_P(FigureGrid, WinnerMatchesPaper) {
  const GridCell cell = GetParam();
  const sim::SimMachine machine = cell.platform == apps::PlatformId::kHaswell
                                      ? sim::haswell()
                                      : sim::xeon_phi();
  const auto w = sim::suite_workload(cell.app, cell.flavor, cell.platform,
                                     apps::SizeClass::kLarge);
  sim::RamrConfig base;
  base.batch = cell.platform == apps::PlatformId::kHaswell ? 1000 : 200;
  const double s =
      sim::ramr_speedup(machine, w, sim::tuned_config(machine, w, base));
  if (cell.ramr_wins) {
    EXPECT_GT(s, 1.0);
  } else {
    // "loses or par": the paper's losing cells are at best break-even.
    EXPECT_LT(s, 1.1);
  }
}

using apps::AppId;
using apps::ContainerFlavor;
using apps::PlatformId;
constexpr auto kD = ContainerFlavor::kDefault;
constexpr auto kH = ContainerFlavor::kHash;
constexpr auto kHWL = PlatformId::kHaswell;
constexpr auto kPHI = PlatformId::kXeonPhi;

INSTANTIATE_TEST_SUITE_P(
    AllCells, FigureGrid,
    ::testing::Values(
        // Fig. 8a (paper: KM/MM win, PCA par, WC/HG/LR lose).
        GridCell{AppId::kKMeans, kD, kHWL, true},
        GridCell{AppId::kMatrixMultiply, kD, kHWL, true},
        GridCell{AppId::kWordCount, kD, kHWL, false},
        GridCell{AppId::kHistogram, kD, kHWL, false},
        GridCell{AppId::kLinearRegression, kD, kHWL, false},
        // Fig. 8b (paper: 5/6 win; MM the max).
        GridCell{AppId::kKMeans, kH, kHWL, true},
        GridCell{AppId::kMatrixMultiply, kH, kHWL, true},
        GridCell{AppId::kHistogram, kH, kHWL, true},
        // Fig. 9a (paper: WC/KM/MM win, HG/LR lose).
        GridCell{AppId::kWordCount, kD, kPHI, true},
        GridCell{AppId::kKMeans, kD, kPHI, true},
        GridCell{AppId::kMatrixMultiply, kD, kPHI, true},
        GridCell{AppId::kHistogram, kD, kPHI, false},
        GridCell{AppId::kLinearRegression, kD, kPHI, false},
        // Fig. 9b (paper: 5/6 win, large average).
        GridCell{AppId::kWordCount, kH, kPHI, true},
        GridCell{AppId::kKMeans, kH, kPHI, true},
        GridCell{AppId::kHistogram, kH, kPHI, true},
        GridCell{AppId::kMatrixMultiply, kH, kPHI, true},
        GridCell{AppId::kLinearRegression, kH, kPHI, true}));

}  // namespace
}  // namespace ramr
