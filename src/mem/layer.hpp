// MemoryLayer — the engine-facing façade of the RAMR_MEM subsystem.
//
// Built by engine::PoolSet when RAMR_MEM != off (the engine carries a null
// pointer otherwise, so the default mode costs one pointer check per
// allocation site). The layer owns:
//
//   * one bump Arena per worker (mapper m, then combiner j), node-bound in
//     numa mode to the worker's pinned CPU's socket — intermediate KV
//     payloads and container nodes allocate from their own thread's arena
//     and are reclaimed wholesale by end_run();
//   * the Ring slot-storage hook (spsc::SlotStorage): huge-page-backed
//     blocks, bound in numa mode to the *consumer's* node — the combiner
//     that drains a ring reads every slot, the producer writes each slot
//     once, so consumer-local placement wins (the consumer additionally
//     first-touches the slots via Ring::prefault before the pipeline
//     starts).
//
// Placement degrades gracefully per page_caps(): no mbind -> first-touch
// only, no THP -> small pages, no mmap -> aligned heap. Never an error.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "mem/arena.hpp"
#include "mem/pages.hpp"
#include "spsc/ring.hpp"
#include "topology/pinning.hpp"
#include "topology/topology.hpp"

namespace ramr::mem {

// End-of-run snapshot, copied by the driver into engine::MemStats.
struct LayerStats {
  std::string mode;                  // "arena" | "numa"
  std::size_t arena_high_water = 0;  // deepest single worker arena (bytes)
  std::size_t arena_chunk_bytes = 0; // total arena backing storage held
  std::size_t arena_resets = 0;      // wholesale resets performed so far
  std::size_t ring_bytes = 0;        // ring slot storage placed via layer
  std::size_t ring_reuses = 0;       // ring blocks served from the spare list
  bool hugepages = false;            // any placed block got MADV_HUGEPAGE
  bool mbind = false;                // any placed block was node-bound
};

class MemoryLayer {
 public:
  // The plan decides worker->node assignments (numa mode only; arena mode
  // never binds). Arenas are created eagerly but allocate lazily, so the
  // owner thread's first allocation first-touches the chunk. `hugepages`
  // (RuntimeConfig::hugepages) lets arenas and rings ask for huge pages.
  MemoryLayer(MemMode mode, const topo::Topology& topo,
              const topo::PinningPlan& plan, bool hugepages = true);

  MemoryLayer(const MemoryLayer&) = delete;
  MemoryLayer& operator=(const MemoryLayer&) = delete;

  MemMode mode() const { return mode_; }

  // True when node-local placement (binding + consumer first-touch) is
  // active — numa mode on a host where it can matter.
  bool placement() const { return mode_ == MemMode::kNuma; }

  Arena& mapper_arena(std::size_t m) { return arenas_[m]; }
  Arena& combiner_arena(std::size_t j) {
    return arenas_[num_mappers_ + j];
  }

  // NUMA node (socket) of the worker's pinned CPU; -1 when unpinned or
  // placement is off.
  int node_of_mapper(std::size_t m) const;
  int node_of_combiner(std::size_t j) const;

  // Slot-storage hook for a Ring whose consumer lives on `node` (-1 = no
  // binding). The returned storage (and this layer) must outlive the Ring.
  //
  // Freed ring blocks are parked on a spare list instead of unmapped, and
  // the next allocation of the same (bytes, align, node) reuses the block —
  // placement, huge-page advice and faulted-in pages included. A warm pool
  // set re-running the pipelined strategy therefore rebuilds its rings
  // without any mmap/mbind traffic (LayerStats::ring_reuses counts the
  // hits). The spare list is bounded; overflow blocks unmap as before.
  spsc::SlotStorage ring_storage(int node);

  // Run-boundary teardown: resets every arena wholesale, then folds arena
  // and ring placement stats into the returned snapshot. Call only while
  // no worker is allocating (after the pools joined).
  LayerStats end_run();

 private:
  struct NodeStorage {
    MemoryLayer* layer;
    int node;
  };

  void* ring_alloc(std::size_t bytes, std::size_t align, int node);
  void ring_free(void* data);

  static void* storage_alloc(std::size_t bytes, std::size_t align,
                             void* ctx);
  static void storage_free(void* data, std::size_t bytes, void* ctx);

  MemMode mode_;
  bool hugepages_;
  std::size_t num_mappers_;
  std::vector<int> mapper_node_;
  std::vector<int> combiner_node_;
  std::vector<Arena> arenas_;  // sized once; element addresses are stable
  std::vector<std::unique_ptr<NodeStorage>> node_storages_;

  struct RingBlock {
    PageBuffer buffer;
    std::size_t align = 0;
    int node = -1;
  };

  // Ring blocks are created/destroyed on cold paths (run setup/teardown)
  // but possibly from bench threads too — a mutex keeps this boring.
  std::mutex ring_mutex_;
  std::unordered_map<void*, RingBlock> ring_blocks_;
  std::vector<RingBlock> ring_spares_;
  std::size_t ring_bytes_ = 0;
  std::size_t ring_reuses_ = 0;
  bool ring_huge_ = false;
  bool ring_bound_ = false;
};

}  // namespace ramr::mem
