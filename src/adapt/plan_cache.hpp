// Plan cache: repeated runs of the same (app, input bucket, topology) skip
// the probe phase entirely.
//
// With an empty path the cache lives only in memory: core::Runtime keeps
// one per instance, so later runs in a size bucket skip the probe without
// any file IO. With a path, storage is one JSON file ("ramr-plan-cache-v1",
// flat objects under a "plans" array), written with telemetry::JsonWriter
// and read back by a deliberately tolerant scanner scoped to exactly that
// shape — the repo has no general JSON dependency and does not want one.
// A file that fails to parse (corrupt, truncated, or a future schema) is
// treated as empty and `corrupt()` reports it; the next store() rewrites
// the file whole, which is the recovery path the tests exercise.
//
// The cache is advisory: every I/O failure degrades to a probe, never to
// an error. Concurrent writers last-write-win a whole file (plans are
// deterministic per key, so losing a race loses nothing).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/plan.hpp"
#include "engine/result.hpp"

namespace ramr::adapt {

class PlanCache {
 public:
  // Empty path = in memory only. Otherwise the file is loaded eagerly; a
  // missing file is an empty cache (not corrupt).
  explicit PlanCache(std::string path = "");

  const std::string& path() const { return path_; }

  // True when the backing file existed but did not parse; lookups miss and
  // the next store() rewrites it from scratch.
  bool corrupt() const { return corrupt_; }

  std::size_t size() const { return entries_.size(); }

  // The cached plan for this key, with source set to "cache".
  std::optional<engine::PlanInfo> lookup(const PlanKey& key) const;

  // Insert-or-replace, then rewrite the file when there is one
  // (best-effort: an unwritable path keeps the in-memory entry and degrades
  // silently — the cache must never fail a run).
  void store(const PlanKey& key, const engine::PlanInfo& plan);

 private:
  void load();
  void save() const;

  std::string path_;
  bool corrupt_ = false;
  std::vector<std::pair<std::string, engine::PlanInfo>> entries_;
};

}  // namespace ramr::adapt
