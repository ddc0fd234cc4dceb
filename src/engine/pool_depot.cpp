#include "engine/pool_depot.hpp"

namespace ramr::engine {

void PoolDepot::Lease::release() {
  if (depot_ == nullptr || set_ == nullptr) {
    set_.reset();
    depot_ = nullptr;
    return;
  }
  depot_->park(key_, std::move(set_));
  depot_ = nullptr;
}

std::unique_ptr<PoolSet> PoolDepot::take(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto it = shelf_.find(key);
  if (it == shelf_.end() || it->second.empty()) return nullptr;
  std::unique_ptr<PoolSet> set = std::move(it->second.back());
  it->second.pop_back();
  --stats_.idle;
  ++stats_.reused;
  ++stats_.leased;
  return set;
}

void PoolDepot::park(const std::string& key, std::unique_ptr<PoolSet> set) {
  // A set over the idle cap is destroyed outside the lock (its pools join
  // their threads, which can take a while).
  std::unique_ptr<PoolSet> overflow;
  {
    std::lock_guard lock(mutex_);
    --stats_.leased;
    if (stats_.idle >= max_idle_) {
      overflow = std::move(set);
    } else {
      shelf_[key].push_back(std::move(set));
      ++stats_.idle;
    }
  }
}

PoolDepot::Lease PoolDepot::acquire(const topo::Topology& topology,
                                    const RuntimeConfig& config) {
  const RuntimeConfig resolved = config.resolved(topology.num_logical());
  const std::string key = PoolSet::shape_key(topology, resolved);
  if (std::unique_ptr<PoolSet> warm = take(key)) {
    warm->rebind(resolved);
    return Lease(this, key, std::move(warm), true);
  }
  auto cold = std::make_unique<PoolSet>(topology, resolved);
  {
    std::lock_guard lock(mutex_);
    ++stats_.built;
    ++stats_.leased;
  }
  return Lease(this, key, std::move(cold), false);
}

PoolDepot::Lease PoolDepot::acquire_single(const topo::Topology& topology,
                                           std::size_t num_workers,
                                           const RuntimeConfig& config) {
  const std::string key =
      PoolSet::shape_key_single(topology, num_workers, config.pin_policy);
  if (std::unique_ptr<PoolSet> warm = take(key)) {
    warm->rebind(config);
    return Lease(this, key, std::move(warm), true);
  }
  auto cold = std::make_unique<PoolSet>(topology, num_workers, config);
  {
    std::lock_guard lock(mutex_);
    ++stats_.built;
    ++stats_.leased;
  }
  return Lease(this, key, std::move(cold), false);
}

PoolDepot::Stats PoolDepot::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void PoolDepot::clear() {
  std::unordered_map<std::string, std::vector<std::unique_ptr<PoolSet>>>
      doomed;
  {
    std::lock_guard lock(mutex_);
    doomed.swap(shelf_);
    stats_.idle = 0;
  }
  // Sets destroyed (threads joined) outside the lock.
}

PoolDepot& PoolDepot::process() {
  static PoolDepot depot;
  return depot;
}

}  // namespace ramr::engine
