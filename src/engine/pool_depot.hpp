// PoolDepot — a registry of warm PoolSets, leased out per run.
//
// The paper pins threads "throughout the MR invocation", but a one-shot
// Runtime still pays pool construction (thread spawn + setaffinity) and the
// pinning plan on every instantiation — wrong for a resident runtime serving
// a stream of jobs, where setup/teardown dominates small and iterative work. The depot converts those per-run costs into
// per-shape costs: a finished run returns its PoolSet to the idle shelf
// instead of destroying it, and the next acquisition of the same structural
// shape (see PoolSet::shape_key) gets the warm set back — threads alive,
// pins held — with only a rebind() of the per-run knobs.
//
// Concurrency: acquisitions remove the set from the shelf, so two live
// leases never alias one PoolSet — concurrent jobs on disjoint leased core
// sets each get their own (the shape key embeds the sub-topology name,
// which names the leased cores). Construction of a cold set happens outside
// the depot mutex; only the shelf bookkeeping is serialized.
//
// Ownership: leases must not outlive the depot (same contract as a
// PhaseDriver not outliving its PoolSet). The process() depot — used when
// RAMR_SERVICE=1 so pool sets survive individual Runtime instances — lives
// until exit.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "engine/pool_set.hpp"
#include "topology/topology.hpp"

namespace ramr::engine {

class PoolDepot {
 public:
  struct Stats {
    std::size_t built = 0;   // cold constructions (threads spawned + pinned)
    std::size_t reused = 0;  // warm acquisitions served from the shelf
    std::size_t idle = 0;    // sets currently parked
    std::size_t leased = 0;  // sets currently out
  };

  // RAII handle on one PoolSet; the destructor (or release()) parks the set
  // back on the depot's shelf for the next acquisition of the same shape.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        depot_ = std::exchange(other.depot_, nullptr);
        key_ = std::move(other.key_);
        set_ = std::move(other.set_);
        warm_ = other.warm_;
      }
      return *this;
    }
    ~Lease() { release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    explicit operator bool() const { return set_ != nullptr; }
    PoolSet& pools() { return *set_; }
    const PoolSet& pools() const { return *set_; }

    // True when this lease was served warm (no thread spawn, no pinning).
    bool warm() const { return warm_; }

    // Return the set to the depot now (also done by the destructor).
    void release();

   private:
    friend class PoolDepot;
    Lease(PoolDepot* depot, std::string key, std::unique_ptr<PoolSet> set,
          bool warm)
        : depot_(depot), key_(std::move(key)), set_(std::move(set)),
          warm_(warm) {}

    PoolDepot* depot_ = nullptr;
    std::string key_;
    std::unique_ptr<PoolSet> set_;
    bool warm_ = false;
  };

  // `max_idle` bounds the total number of parked sets; a release beyond it
  // destroys the returned set (joining its threads) instead of shelving it.
  explicit PoolDepot(std::size_t max_idle = 8) : max_idle_(max_idle) {}

  PoolDepot(const PoolDepot&) = delete;
  PoolDepot& operator=(const PoolDepot&) = delete;

  // Dual-pool shape; the config is resolved against the topology exactly as
  // PoolSet's own constructor would. Throws ConfigError on impossible
  // configs, warm or cold.
  Lease acquire(const topo::Topology& topology, const RuntimeConfig& config);

  // Single-pool (fused) shape; `num_workers` 0 = one per logical CPU. The
  // set carries `config` (resolved), pinned by its pin_policy; a warm set
  // is rebound to it.
  Lease acquire_single(const topo::Topology& topology,
                       std::size_t num_workers, const RuntimeConfig& config);

  Stats stats() const;

  // Destroy every idle set (threads join); live leases are unaffected.
  void clear();

  // The process-wide depot behind RAMR_SERVICE=1: pool sets parked here
  // survive individual Runtime instances, so a stream of run_once calls
  // amortizes spin-up across the whole process.
  static PoolDepot& process();

 private:
  friend class Lease;

  // Pops a warm set for `key` (bumping reused/leased) or returns null.
  std::unique_ptr<PoolSet> take(const std::string& key);
  void park(const std::string& key, std::unique_ptr<PoolSet> set);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<PoolSet>>>
      shelf_;
  Stats stats_;
  std::size_t max_idle_;
};

}  // namespace ramr::engine
