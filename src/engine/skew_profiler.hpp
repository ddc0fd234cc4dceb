// Straggler/skew profiler (RAMR_OBS=full): answers "which worker is the
// straggler and which key caused it" for one run.
//
// Three signals, all cheap enough to leave on for a whole service:
//
//   * per-mapper busy time — drain_map_tasks times each task (two clock
//     reads per task, not per record) into a cache-line-aligned
//     single-writer slot; the max/mean ratio is the map-phase imbalance
//     score (1.0 = perfectly balanced);
//   * per-combiner drained elements + deepest ring — the pipelined
//     strategy attributes its end-of-phase ring stats to the combiner that
//     drained each ring (zero hot-path cost: the numbers are read once,
//     after the pools join); the drained-element imbalance is the direct
//     signature of a hot-key-skewed hash partition;
//   * sampled hot keys — every 64th emission per mapper feeds a count-min
//     sketch (two rows of relaxed atomic cells, write-only on the hot
//     path) and a per-mapper single-writer candidate table; finalize()
//     merges the tables into a top-K estimate with per-key shares.
//
// Off (the default) the whole thing is one null-pointer check per emission
// and per task; nothing is allocated. The results land in
// RunResult::skew / summary() / the ramr-run-report-v1 "skew" object.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "containers/key_hash.hpp"
#include "engine/result.hpp"

namespace ramr::engine {

class SkewProfiler {
 public:
  // Sample every (kSampleMask + 1)-th emission per mapper: dense enough to
  // rank hot keys on any non-trivial input, sparse enough that the hash +
  // two sketch bumps disappear next to the emit itself.
  static constexpr std::uint64_t kSampleMask = 63;

  static constexpr std::size_t kSketchRows = 2;
  static constexpr std::size_t kSketchCols = 2048;  // power of two
  static constexpr std::size_t kCandidates = 8;     // per-mapper table
  static constexpr std::size_t kTopK = 5;           // reported hot keys

  SkewProfiler(std::size_t num_mappers, std::size_t num_combiners)
      : mappers_(num_mappers), drained_(num_combiners, 0),
        ring_depth_(num_combiners, 0) {
    for (auto& row : sketch_) {
      for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
    }
  }

  // ---- hot path (one writer per mapper slot) ----------------------------

  // Called by drain_map_tasks around each task attempt.
  void add_busy(std::size_t mapper, double seconds) {
    mappers_[mapper].busy_seconds += seconds;
  }

  // Emission-count tick; returns true when this emission should be
  // sampled. Kept separate from sample_key so callers hash only on the
  // sampled path.
  bool tick(std::size_t mapper) {
    return (mappers_[mapper].emits++ & kSampleMask) == 0;
  }

  // Sketch + candidate update for one sampled key. K must be hashable;
  // the key's printable form is captured lazily (only when it enters the
  // candidate table).
  template <typename K>
  void sample_key(std::size_t mapper, const K& key) {
    const std::uint64_t h = mix(containers::KeyHash<K>{}(key));
    const std::uint32_t est = sketch_bump(h);
    note_candidate(mappers_[mapper], h, est,
                   [&] { return printable(key); });
  }

  // ---- end-of-phase accounting (pools joined, single thread) ------------

  void add_drained(std::size_t combiner, std::uint64_t elements,
                   std::uint64_t max_occupancy) {
    drained_[combiner] += elements;
    ring_depth_[combiner] =
        std::max(ring_depth_[combiner], max_occupancy);
  }

  // Folds everything into the result's SkewStats. worker_name(i) labels
  // the straggler (e.g. Heartbeats::worker_name).
  SkewStats finalize(
      const std::function<std::string(std::size_t)>& mapper_name) const {
    SkewStats s;
    s.enabled = true;

    double total = 0.0, worst = 0.0;
    std::size_t straggler = 0;
    for (std::size_t m = 0; m < mappers_.size(); ++m) {
      const double busy = mappers_[m].busy_seconds;
      total += busy;
      if (busy > worst) {
        worst = busy;
        straggler = m;
      }
      s.sampled += (mappers_[m].emits + kSampleMask) / (kSampleMask + 1);
    }
    if (!mappers_.empty() && total > 0.0) {
      const double mean = total / static_cast<double>(mappers_.size());
      s.map_imbalance = worst / mean;
      s.straggler = mapper_name ? mapper_name(straggler)
                                : "mapper-" + std::to_string(straggler);
    }

    std::uint64_t drained_total = 0, drained_worst = 0;
    for (std::size_t j = 0; j < drained_.size(); ++j) {
      drained_total += drained_[j];
      drained_worst = std::max(drained_worst, drained_[j]);
      s.ring_depth = std::max(s.ring_depth, ring_depth_[j]);
    }
    if (!drained_.empty() && drained_total > 0) {
      const double mean = static_cast<double>(drained_total) /
                          static_cast<double>(drained_.size());
      s.drain_imbalance = static_cast<double>(drained_worst) / mean;
    }

    // Merge the per-mapper candidate tables by hash (counts are sketch
    // estimates of the same global stream, so the max — not the sum — is
    // the per-key estimate).
    std::vector<Candidate> merged;
    for (const MapperSlot& slot : mappers_) {
      for (const Candidate& c : slot.candidates) {
        if (c.count == 0) continue;
        auto it = std::find_if(merged.begin(), merged.end(),
                               [&](const Candidate& m) {
                                 return m.hash == c.hash;
                               });
        if (it == merged.end()) {
          merged.push_back(c);
        } else if (c.count > it->count) {
          *it = c;
        }
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.count > b.count;
              });
    if (merged.size() > kTopK) merged.resize(kTopK);
    std::uint64_t sampled_nonzero = std::max<std::uint64_t>(1, s.sampled);
    for (const Candidate& c : merged) {
      s.hot_keys.push_back(SkewStats::HotKey{
          c.name, c.count,
          static_cast<double>(c.count) /
              static_cast<double>(sampled_nonzero)});
    }
    return s;
  }

 private:
  struct Candidate {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;  // sketch estimate when last touched
    std::string name;
  };

  // One cache line per mapper: busy time, emit tick, candidate table —
  // written by exactly one thread, read after the pools join.
  struct alignas(64) MapperSlot {
    double busy_seconds = 0.0;
    std::uint64_t emits = 0;
    std::vector<Candidate> candidates = std::vector<Candidate>(kCandidates);
  };

  // SplitMix64 finalizer: decorrelates KeyHash's identity-like integer
  // hashing (std::hash underneath) before the sketch rows slice bits off it.
  static std::uint64_t mix(std::uint64_t h) {
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  std::uint32_t sketch_bump(std::uint64_t h) {
    std::uint32_t est = ~std::uint32_t{0};
    for (std::size_t row = 0; row < kSketchRows; ++row) {
      const std::size_t col =
          static_cast<std::size_t>(h >> (row * 16)) & (kSketchCols - 1);
      // Relaxed RMW: concurrent mappers may interleave, which only ever
      // over-counts — the usual count-min bias direction.
      const std::uint32_t v =
          sketch_[row][col].fetch_add(1, std::memory_order_relaxed) + 1;
      est = std::min(est, v);
    }
    return est;
  }

  template <typename K>
  static std::string printable(const K& key) {
    if constexpr (requires(std::ostream& os, const K& k) { os << k; }) {
      std::ostringstream os;
      os << key;
      std::string s = os.str();
      if (s.size() > 32) {
        s.resize(29);
        s += "...";
      }
      return s;
    } else {
      return "<unprintable>";
    }
  }

  template <typename NameFn>
  static void note_candidate(MapperSlot& slot, std::uint64_t h,
                             std::uint32_t est, NameFn&& name) {
    Candidate* weakest = &slot.candidates[0];
    for (Candidate& c : slot.candidates) {
      if (c.hash == h && c.count != 0) {
        c.count = std::max(c.count, est);
        return;
      }
      if (c.count < weakest->count) weakest = &c;
    }
    if (est > weakest->count) {
      weakest->hash = h;
      weakest->count = est;
      weakest->name = name();
    }
  }

  std::vector<MapperSlot> mappers_;
  std::vector<std::uint64_t> drained_;     // per combiner
  std::vector<std::uint64_t> ring_depth_;  // per combiner
  std::array<std::array<std::atomic<std::uint32_t>, kSketchCols>,
             kSketchRows>
      sketch_;
};

}  // namespace ramr::engine
