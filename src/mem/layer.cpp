#include "mem/layer.hpp"

#include <algorithm>

namespace ramr::mem {

namespace {

// Arena chunks are sized so numa-mode chunks can actually be backed by one
// transparent huge page (2 MiB on x86-64); smaller would fragment the
// advice away.
constexpr std::size_t kArenaChunkBytes = 2 * 1024 * 1024;

// Bound on parked ring blocks: enough for every ring of one large dual
// shape to survive a run boundary, small enough that an idle warm pool set
// holds at most a few hundred MiB of spare slot storage.
constexpr std::size_t kMaxRingSpares = 64;

std::vector<int> nodes_from(const topo::Topology& topo,
                            const std::vector<std::size_t>& cpus,
                            std::size_t count, bool placed) {
  std::vector<int> nodes(count, -1);
  if (!placed) return nodes;
  for (std::size_t i = 0; i < count && i < cpus.size(); ++i) {
    nodes[i] = static_cast<int>(topo.by_os_id(cpus[i]).socket);
  }
  return nodes;
}

}  // namespace

MemoryLayer::MemoryLayer(MemMode mode, const topo::Topology& topo,
                         const topo::PinningPlan& plan, bool hugepages)
    : mode_(mode), hugepages_(hugepages), num_mappers_(plan.num_mappers()) {
  const bool placed = placement();
  mapper_node_ = nodes_from(topo, plan.mapper_cpu, plan.num_mappers(), placed);
  combiner_node_ =
      nodes_from(topo, plan.combiner_cpu, plan.num_combiners(), placed);
  arenas_.reserve(plan.num_mappers() + plan.num_combiners());
  for (std::size_t m = 0; m < plan.num_mappers(); ++m) {
    arenas_.emplace_back(kArenaChunkBytes, mapper_node_[m], hugepages_);
  }
  for (std::size_t j = 0; j < plan.num_combiners(); ++j) {
    arenas_.emplace_back(kArenaChunkBytes, combiner_node_[j], hugepages_);
  }
}

int MemoryLayer::node_of_mapper(std::size_t m) const {
  return m < mapper_node_.size() ? mapper_node_[m] : -1;
}

int MemoryLayer::node_of_combiner(std::size_t j) const {
  return j < combiner_node_.size() ? combiner_node_[j] : -1;
}

spsc::SlotStorage MemoryLayer::ring_storage(int node) {
  std::lock_guard lock(ring_mutex_);
  NodeStorage* ctx = nullptr;
  for (const auto& ns : node_storages_) {
    if (ns->node == node) {
      ctx = ns.get();
      break;
    }
  }
  if (ctx == nullptr) {
    node_storages_.push_back(
        std::make_unique<NodeStorage>(NodeStorage{this, node}));
    ctx = node_storages_.back().get();
  }
  return spsc::SlotStorage{&MemoryLayer::storage_alloc,
                           &MemoryLayer::storage_free, ctx};
}

void* MemoryLayer::ring_alloc(std::size_t bytes, std::size_t align,
                              int node) {
  const int want_node = placement() ? node : -1;
  {
    // Warm path: a parked block of the same size, alignment and node keeps
    // its mapping, placement, and already-faulted pages.
    std::lock_guard lock(ring_mutex_);
    for (auto it = ring_spares_.begin(); it != ring_spares_.end(); ++it) {
      if (it->buffer.size() == bytes && it->align == align &&
          it->node == want_node) {
        RingBlock block = std::move(*it);
        ring_spares_.erase(it);
        void* data = block.buffer.data();
        ring_bytes_ += bytes;
        ++ring_reuses_;
        ring_blocks_.emplace(data, std::move(block));
        return data;
      }
    }
  }
  PageBuffer buffer(bytes, align, want_node, hugepages_);
  void* data = buffer.data();
  std::lock_guard lock(ring_mutex_);
  ring_bytes_ += bytes;
  ring_huge_ = ring_huge_ || buffer.huge();
  ring_bound_ = ring_bound_ || buffer.bound();
  ring_blocks_.emplace(data, RingBlock{std::move(buffer), align, want_node});
  return data;
}

void MemoryLayer::ring_free(void* data) {
  std::lock_guard lock(ring_mutex_);
  auto it = ring_blocks_.find(data);
  if (it == ring_blocks_.end()) return;
  ring_bytes_ -= it->second.buffer.size();
  if (ring_spares_.size() < kMaxRingSpares) {
    ring_spares_.push_back(std::move(it->second));
  }
  ring_blocks_.erase(it);  // overflow: PageBuffer dtor returns the block
}

void* MemoryLayer::storage_alloc(std::size_t bytes, std::size_t align,
                                 void* ctx) {
  auto* ns = static_cast<NodeStorage*>(ctx);
  return ns->layer->ring_alloc(bytes, align, ns->node);
}

void MemoryLayer::storage_free(void* data, std::size_t, void* ctx) {
  static_cast<NodeStorage*>(ctx)->layer->ring_free(data);
}

LayerStats MemoryLayer::end_run() {
  LayerStats out;
  out.mode = to_string(mode_);
  for (Arena& arena : arenas_) arena.reset();
  for (const Arena& arena : arenas_) {
    const ArenaStats& s = arena.stats();
    out.arena_high_water = std::max(out.arena_high_water, s.high_water);
    out.arena_chunk_bytes += s.chunk_bytes;
    out.arena_resets += s.resets;
  }
  {
    std::lock_guard lock(ring_mutex_);
    out.ring_bytes = ring_bytes_;
    out.ring_reuses = ring_reuses_;
    out.hugepages = ring_huge_;
    out.mbind = ring_bound_;
  }
  return out;
}

}  // namespace ramr::mem
