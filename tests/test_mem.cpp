// Tests for the RAMR_MEM subsystem: bump arenas (alignment, high-water,
// wholesale reset with chunk reuse), page-backed buffers, the
// MemoryLayer's node assignment, ring-storage hook and huge-page switch, and end-to-end runs under mem=arena / mem=numa matching the default
// path's results exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_pipelined.hpp"
#include "mem/arena.hpp"
#include "mem/layer.hpp"
#include "mem/pages.hpp"
#include "mini_apps.hpp"
#include "spsc/ring.hpp"
#include "topology/pinning.hpp"
#include "topology/topology.hpp"

namespace ramr::mem {
namespace {

using ramr::testing::make_numbers;
using ramr::testing::ModCountApp;
using ramr::testing::pairs_match;

// ---------- Arena ----------------------------------------------------------------

TEST(Arena, BumpAllocationsAreAlignedAndDisjoint) {
  Arena arena(8192);
  auto* a = static_cast<unsigned char*>(arena.allocate(100, 8));
  auto* b = static_cast<unsigned char*>(arena.allocate(100, 64));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  // Disjoint: writing one block never touches the other.
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  EXPECT_EQ(a[99], 0xAA);
  EXPECT_EQ(b[0], 0xBB);
  EXPECT_GE(arena.stats().allocated, 200u);
  EXPECT_EQ(arena.stats().high_water, arena.stats().allocated);
}

TEST(Arena, ResetKeepsChunksAndRewindsAllocation) {
  Arena arena(4096);
  for (int i = 0; i < 64; ++i) arena.allocate(512, 8);
  const std::size_t chunks_before = arena.stats().chunks;
  const std::size_t chunk_bytes_before = arena.stats().chunk_bytes;
  const std::size_t high_water = arena.stats().high_water;
  EXPECT_GT(chunks_before, 1u);  // must have grown past the first chunk

  arena.reset();
  EXPECT_EQ(arena.stats().allocated, 0u);
  EXPECT_EQ(arena.stats().resets, 1u);
  // Wholesale reset keeps the backing storage for reuse...
  EXPECT_EQ(arena.stats().chunks, chunks_before);
  EXPECT_EQ(arena.stats().chunk_bytes, chunk_bytes_before);
  // ...and the high-water mark survives across resets.
  EXPECT_EQ(arena.stats().high_water, high_water);

  // The same allocation pattern after reset reuses chunks: no growth.
  for (int i = 0; i < 64; ++i) arena.allocate(512, 8);
  EXPECT_EQ(arena.stats().chunks, chunks_before);
  EXPECT_EQ(arena.stats().chunk_bytes, chunk_bytes_before);
}

TEST(Arena, OversizedRequestGetsItsOwnChunk) {
  Arena arena(4096);
  void* small = arena.allocate(64, 8);
  void* big = arena.allocate(1 << 20, 64);  // far beyond the chunk size
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5C, 1 << 20);  // the whole block must be writable
  EXPECT_GE(arena.stats().chunk_bytes, std::size_t{1} << 20);
}

TEST(Arena, ReleaseReturnsAllStorage) {
  Arena arena(4096);
  arena.allocate(10000, 8);
  arena.release();
  EXPECT_EQ(arena.stats().chunks, 0u);
  EXPECT_EQ(arena.stats().chunk_bytes, 0u);
  // Still usable afterwards.
  EXPECT_NE(arena.allocate(64, 8), nullptr);
}

TEST(ArenaAllocator, BacksAStdVector) {
  Arena arena(4096);
  std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>> v{
      ArenaAllocator<std::uint64_t>(&arena)};
  for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), std::uint64_t{0}),
            1000u * 999u / 2);
  EXPECT_GE(arena.stats().high_water, 1000 * sizeof(std::uint64_t));
}

// ---------- PageBuffer ------------------------------------------------------------

TEST(PageBuffer, AllocatesWritableAlignedMemory) {
  PageBuffer buf(1 << 16, 64, /*node=*/-1, /*want_huge=*/true);
  ASSERT_TRUE(static_cast<bool>(buf));
  EXPECT_GE(buf.size(), std::size_t{1} << 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  std::memset(buf.data(), 0x7E, buf.size());
  EXPECT_EQ(static_cast<unsigned char*>(buf.data())[buf.size() - 1], 0x7E);
}

TEST(PageBuffer, WithoutHugeRequestStaysOnSmallPages) {
  PageBuffer buf(1 << 16, 64, -1, /*want_huge=*/false);
  ASSERT_TRUE(static_cast<bool>(buf));
  EXPECT_FALSE(buf.huge());  // the advice must not have been applied
  std::memset(buf.data(), 0x11, buf.size());  // still fully usable
}

TEST(PageBuffer, UnboundableNodeDegradesSilently) {
  // Node 4095 does not exist on any test host; binding must fail softly
  // and the block stay usable (first-touch placement takes over).
  PageBuffer buf(1 << 14, 64, /*node=*/4095, false);
  ASSERT_TRUE(static_cast<bool>(buf));
  std::memset(buf.data(), 0x22, buf.size());
  SUCCEED();  // no throw is the contract; bound() may be either way
}

TEST(PageBuffer, MoveTransfersOwnership) {
  PageBuffer a(1 << 12, 64, -1, false);
  void* data = a.data();
  PageBuffer b(std::move(a));
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(a.data(), nullptr);
}

// ---------- MemoryLayer -----------------------------------------------------------

topo::PinningPlan tiny_plan(const topo::Topology& topo) {
  // kOsDefault works on any host (including the 1-CPU CI box, where a
  // pinning policy would reject 2+1 workers); unpinned workers get node -1.
  return topo::make_plan(topo, PinPolicy::kOsDefault, 2, 1);
}

TEST(MemoryLayer, ArenaModeNeverBindsNodes) {
  const auto topo = topo::host();
  MemoryLayer layer(MemMode::kArena, topo, tiny_plan(topo));
  EXPECT_FALSE(layer.placement());
  EXPECT_EQ(layer.node_of_mapper(0), -1);
  EXPECT_EQ(layer.node_of_combiner(0), -1);
}

TEST(MemoryLayer, NumaModeAssignsNodesFromThePlan) {
  // Single-node hosts (the CI box) must still work: every node id is then
  // 0 or -1 (unpinned workers). The invariant is "never out of range", not
  // a particular numbering.
  const auto topo = topo::host();
  MemoryLayer layer(MemMode::kNuma, topo, tiny_plan(topo));
  EXPECT_TRUE(layer.placement());
  for (std::size_t m = 0; m < 2; ++m) {
    const int node = layer.node_of_mapper(m);
    EXPECT_GE(node, -1);
    EXPECT_LT(node, static_cast<int>(topo.num_sockets()));
  }
}

TEST(MemoryLayer, RingStorageRoundTripsThroughARing) {
  const auto topo = topo::host();
  MemoryLayer layer(MemMode::kArena, topo, tiny_plan(topo));
  {
    spsc::Ring<std::uint64_t> ring(64, layer.ring_storage(-1));
    ring.prefault();
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(ring.try_push(std::uint64_t{i}));
    }
    std::uint64_t out = 0, sum = 0;
    while (ring.try_pop(out)) sum += out;
    EXPECT_EQ(sum, 64u * 63u / 2);
    EXPECT_GE(layer.end_run().ring_bytes, 64 * sizeof(std::uint64_t));
  }
  // The ring's destructor returned its block: the layer no longer counts it.
  EXPECT_EQ(layer.end_run().ring_bytes, 0u);
}

TEST(MemoryLayer, HugePagesOffKeepsRingsOnSmallPages) {
  // RuntimeConfig::hugepages = false (RAMR_HUGEPAGES=off) reaches the layer
  // through PoolSet; the layer must then never advise huge pages.
  const auto topo = topo::host();
  MemoryLayer layer(MemMode::kArena, topo, tiny_plan(topo),
                    /*hugepages=*/false);
  spsc::Ring<std::uint64_t> ring(1 << 16, layer.ring_storage(-1));
  ring.prefault();
  EXPECT_FALSE(layer.end_run().hugepages);
}

TEST(MemoryLayer, EndRunResetsArenasAndFoldsStats) {
  const auto topo = topo::host();
  MemoryLayer layer(MemMode::kArena, topo, tiny_plan(topo));
  layer.mapper_arena(0).allocate(5000, 8);
  layer.mapper_arena(1).allocate(100, 8);
  layer.combiner_arena(0).allocate(300, 8);
  const LayerStats stats = layer.end_run();
  EXPECT_EQ(stats.mode, "arena");
  EXPECT_GE(stats.arena_high_water, 5000u);  // deepest single arena
  EXPECT_GT(stats.arena_chunk_bytes, 0u);
  EXPECT_EQ(stats.arena_resets, 3u);  // one per arena
  EXPECT_EQ(layer.mapper_arena(0).stats().allocated, 0u);
}

// ---------- end-to-end: mem modes preserve results --------------------------------

engine::RunResult<std::uint64_t, std::uint64_t> run_mod_count(
    MemMode mode, std::size_t emit_batch = 0) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 64;
  cfg.batch_size = 8;
  cfg.mem_mode = mode;
  cfg.emit_batch = emit_batch;
  engine::PoolSet pools(topo::host(), cfg);
  engine::PhaseDriver driver(pools);
  engine::PipelinedSpsc<ModCountApp> strategy;
  const auto input = make_numbers(20000, 42);
  return driver.run(strategy, ModCountApp{}, input);
}

TEST(MemEndToEnd, ArenaModeMatchesDefaultResults) {
  const auto base = run_mod_count(MemMode::kOff);
  const auto arena = run_mod_count(MemMode::kArena, /*emit_batch=*/16);
  ASSERT_EQ(arena.pairs.size(), base.pairs.size());
  EXPECT_EQ(arena.pairs, base.pairs);

  EXPECT_FALSE(base.mem.enabled());
  ASSERT_TRUE(arena.mem.enabled());
  EXPECT_EQ(arena.mem.mode, "arena");
  // The emit buffers allocate from the mapper arenas.
  EXPECT_GT(arena.mem.arena_high_water, 0u);
  EXPECT_GT(arena.mem.arena_resets, 0u);
  EXPECT_GT(arena.mem.ring_bytes, 0u);
  // Batched emit actually engaged.
  EXPECT_GT(arena.queue_push_batches, 0u);
  EXPECT_EQ(base.queue_push_batches, 0u);
  // And the stats line appears only when the subsystem is on.
  EXPECT_NE(arena.summary().find("mem=arena"), std::string::npos);
  EXPECT_EQ(base.summary().find("mem="), std::string::npos);
}

TEST(MemEndToEnd, NumaModeMatchesDefaultResults) {
  const auto base = run_mod_count(MemMode::kOff);
  const auto numa = run_mod_count(MemMode::kNuma, /*emit_batch=*/16);
  EXPECT_EQ(numa.pairs, base.pairs);
  ASSERT_TRUE(numa.mem.enabled());
  EXPECT_EQ(numa.mem.mode, "numa");
  EXPECT_GT(numa.mem.ring_bytes, 0u);
}

TEST(MemEndToEnd, ElementWiseEmitStillWorksUnderArenaMode) {
  // RAMR_EMIT_BATCH=0 opt-out: mem on, producer batching off.
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 64;
  cfg.batch_size = 8;
  cfg.mem_mode = MemMode::kArena;
  cfg.emit_batch = 0;
  cfg.pinned.set(Knob::kEmitBatch);  // as RAMR_EMIT_BATCH=0 would
  engine::PoolSet pools(topo::host(), cfg);
  engine::PhaseDriver driver(pools);
  engine::PipelinedSpsc<ModCountApp> strategy;
  const auto input = make_numbers(5000, 7);
  const auto result = driver.run(strategy, ModCountApp{}, input);
  EXPECT_TRUE(pairs_match(result.pairs, ModCountApp{}.reference(input)));
  EXPECT_EQ(result.queue_push_batches, 0u);
  EXPECT_TRUE(result.mem.enabled());
}

// A mapper failure mid-phase with batched emit on: the failing worker's
// unwind path must flush/discard its buffer without hanging the combiner
// or the peer mapper (the cancel token interrupts a blocked flush).
struct FailingModApp {
  using input_type = std::vector<std::uint64_t>;
  using container_type = ModCountApp::container_type;

  ModCountApp inner;

  std::size_t num_splits(const input_type& in) const {
    return inner.num_splits(in);
  }
  container_type make_container() const { return inner.make_container(); }

  template <typename Emit>
  void map(const input_type& in, std::size_t split, Emit&& emit) const {
    const std::size_t begin = split * inner.chunk;
    const std::size_t end = std::min(begin + inner.chunk, in.size());
    for (std::size_t i = begin; i < end; ++i) {
      if (in[i] == 777) {
        throw Error("injected map failure");
      }
      emit(in[i] % inner.buckets, std::uint64_t{1});
    }
  }
};

TEST(MemEndToEnd, MapFailureUnderBatchedEmitJoinsCleanly) {
  RuntimeConfig cfg;
  cfg.num_mappers = 2;
  cfg.num_combiners = 1;
  cfg.pin_policy = PinPolicy::kOsDefault;
  cfg.queue_capacity = 8;  // tiny: producers block, exercising wait_full
  cfg.batch_size = 2;
  cfg.mem_mode = MemMode::kArena;
  cfg.emit_batch = 4;
  engine::PoolSet pools(topo::host(), cfg);
  engine::PhaseDriver driver(pools);
  engine::PipelinedSpsc<FailingModApp> strategy;
  auto input = make_numbers(50000, 3);
  input[input.size() / 2] = 777;  // poison one split mid-stream
  EXPECT_THROW(driver.run(strategy, FailingModApp{}, input), Error);

  // The same pools run clean work afterwards (arenas were reset).
  engine::PhaseDriver driver2(pools);
  engine::PipelinedSpsc<ModCountApp> ok;
  const auto small = make_numbers(2000, 5);
  const auto result = driver2.run(ok, ModCountApp{}, small);
  EXPECT_TRUE(pairs_match(result.pairs, ModCountApp{}.reference(small)));
}

// ---------- config plumbing -------------------------------------------------------

TEST(MemConfig, MemModeDefaultsEmitBatchOn) {
  RuntimeConfig cfg;
  cfg.mem_mode = MemMode::kArena;
  const RuntimeConfig r = cfg.resolved(8);
  EXPECT_GT(r.emit_batch, 0u);
  EXPECT_LE(r.emit_batch, r.queue_capacity / 2);
}

TEST(MemConfig, ExplicitZeroEmitBatchWinsOverTheMemDefault) {
  RuntimeConfig cfg;
  cfg.mem_mode = MemMode::kArena;
  cfg.emit_batch = 0;
  cfg.pinned.set(Knob::kEmitBatch);  // as RAMR_EMIT_BATCH=0 would
  EXPECT_EQ(cfg.resolved(8).emit_batch, 0u);
}

TEST(MemConfig, EmitBatchAboveCapacityIsRejected) {
  RuntimeConfig cfg;
  cfg.emit_batch = cfg.queue_capacity + 1;
  EXPECT_THROW(cfg.resolved(8), ConfigError);
}

TEST(MemConfig, SummaryMentionsMemOnlyWhenOn) {
  RuntimeConfig cfg;
  EXPECT_EQ(cfg.summary().find("mem="), std::string::npos);
  cfg.mem_mode = MemMode::kNuma;
  EXPECT_NE(cfg.summary().find("mem=numa"), std::string::npos);
}

}  // namespace
}  // namespace ramr::mem
