// Thread-pool construction and PinPolicy resolution — the one place that
// turns (topology, policy, worker counts) into pinned, long-lived pools.
//
// Every runtime used to re-implement this (with subtle divergence in how
// the single-pool runtimes interpreted the paired policy); they now all
// hold a PoolSet in one of two shapes:
//
//   * dual   — the decoupled RAMR shape: a general-purpose mapper pool plus
//     a combiner pool, placed by topo::make_plan (paper Sec. III-B);
//   * single — the Phoenix++/MRPhi shape: one general-purpose pool; round-
//     robin pins threads in OS-id order, the paired policy (which has no
//     pair structure without a combiner pool) degenerates to the
//     topology's proximity order.
//
// Threads are created and pinned once at construction and live "throughout
// the MR invocation" (paper Sec. III-B); pools persist across run() calls.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sched/thread_pool.hpp"
#include "topology/pinning.hpp"
#include "topology/topology.hpp"

namespace ramr::engine {

// The wait-both-pools / rethrow-first-error join protocol: always wait for
// BOTH pools before rethrowing, because leaving a region in flight would
// poison the next run() (the pools are long-lived). This is the single
// definition of the pattern — strategies must not hand-roll it.
//
// When both pools fail, the second pool's exception is *suppressed*, not
// silently dropped: join_pools_collect reports its count and message so
// callers can surface them (join_pools_rethrow_first prints a one-line
// stderr note before rethrowing the first error).
struct JoinOutcome {
  std::exception_ptr first_error;  // null when both pools completed cleanly
  std::size_t suppressed = 0;      // additional errors beyond the first
  std::string suppressed_message;  // what() of the first suppressed error
};

JoinOutcome join_pools_collect(sched::ThreadPool& first,
                               sched::ThreadPool& second);

void join_pools_rethrow_first(sched::ThreadPool& first,
                              sched::ThreadPool& second);

// Width of the single pool a fused run of an mr::CombinesInMap app leases:
// every logical CPU of the topology, or — when the caller fixed the worker
// counts (num_mappers / num_combiners, in code or via env) — their resolved
// sum. `config` is the config as the caller gave it, before resolved().
// Throws ConfigError where resolved() would.
std::size_t fused_width(const topo::Topology& topology,
                        const RuntimeConfig& config);

class PoolSet {
 public:
  // Dual-pool (decoupled) shape. The config is resolved against the
  // topology (worker counts derived from the machine when left at 0) and
  // the pinning plan computed once. Throws ConfigError on impossible
  // configs (see RuntimeConfig::resolved).
  PoolSet(topo::Topology topology, const RuntimeConfig& config);

  // Single-pool shape. `num_workers` 0 = one worker per logical CPU.
  // Throws ConfigError when the topology has no CPUs to derive from. The
  // set carries `config` (the caller's resolved knobs, pinned by its
  // pin_policy) with num_mappers = the worker count and num_combiners = 0.
  PoolSet(topo::Topology topology, std::size_t num_workers,
          const RuntimeConfig& config);

  // Single-pool shape with default knobs (the Phoenix++/MRPhi runtimes).
  PoolSet(topo::Topology topology, std::size_t num_workers, PinPolicy policy);

  PoolSet(const PoolSet&) = delete;
  PoolSet& operator=(const PoolSet&) = delete;

  // Structural identity of a pool set: everything whose change would force
  // the thread pools or pins to be rebuilt. Two resolved
  // configs with equal shape keys can share one warm PoolSet — rebind()
  // swaps the per-run knobs (batch size, task size, ...) that the
  // strategies read through config(). The key is what PoolDepot shelves
  // warm sets under.
  static std::string shape_key(const topo::Topology& topology,
                               const RuntimeConfig& resolved);
  static std::string shape_key_single(const topo::Topology& topology,
                                      std::size_t num_workers,
                                      PinPolicy policy);
  const std::string& shape() const { return shape_; }

  // Re-aim a warm set at a new resolved config of the same shape; threads,
  // pins and plan are untouched. The single shape keeps its worker
  // count (num_mappers) and num_combiners = 0. Throws ConfigError when the
  // shape differs.
  void rebind(const RuntimeConfig& resolved);

  bool dual() const { return combiner_pool_ != nullptr; }

  const topo::Topology& topology() const { return topo_; }

  // The per-run knobs the strategies and the driver read. Under the single
  // shape num_mappers is the worker count and num_combiners is 0.
  const RuntimeConfig& config() const { return cfg_; }

  // Placement plan; empty CPU vectors under the single shape or kOsDefault.
  const topo::PinningPlan& plan() const { return plan_; }

  // The general-purpose pool: map tasks and the reduce phase (the paper's
  // "top pool ... will be used to execute the tasks of map, reduce and
  // merge"; merge runs on the driver thread, engine/phase_driver.hpp).
  sched::ThreadPool& mapper_pool() { return *mapper_pool_; }

  // The combiner pool; only present under the dual shape.
  sched::ThreadPool& combiner_pool() { return *combiner_pool_; }

  std::size_t num_mappers() const { return mapper_pool_->size(); }
  std::size_t num_combiners() const {
    return combiner_pool_ ? combiner_pool_->size() : 0;
  }

  // Locality groups: one task queue per socket the pools span.
  std::size_t num_groups() const { return num_groups_; }

  // Which locality-group queue mapper/worker `m` prefers: the socket of its
  // pinned CPU when placement is known, round-robin otherwise.
  std::size_t group_of_mapper(std::size_t m) const;

  // The pin each thread was requested to run on (std::nullopt = unpinned);
  // exposed so tests can verify policy resolution without digging into the
  // OS. Pins that fail on a small host degrade silently to unpinned.
  const std::vector<std::optional<std::size_t>>& mapper_pins() const {
    return mapper_pins_;
  }
  const std::vector<std::optional<std::size_t>>& combiner_pins() const {
    return combiner_pins_;
  }

 private:
  topo::Topology topo_;
  RuntimeConfig cfg_;
  std::string shape_;
  topo::PinningPlan plan_;
  std::vector<std::optional<std::size_t>> mapper_pins_;
  std::vector<std::optional<std::size_t>> combiner_pins_;
  std::unique_ptr<sched::ThreadPool> mapper_pool_;
  std::unique_ptr<sched::ThreadPool> combiner_pool_;
  std::size_t num_groups_ = 1;
};

}  // namespace ramr::engine
