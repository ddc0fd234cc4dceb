// PipelinedSpsc — the RAMR coupling strategy (paper Sec. III, Fig. 2).
//
// Map tasks run on the general-purpose pool; each mapper emits its
// intermediate key/value pairs into its own fixed-capacity SPSC ring
// instead of combining them inline. Combiners run *concurrently* with
// mappers on the second pool: each one drains its assigned set of rings in
// batches, applies the combine function, and stores results in a private
// container. When all map tasks are done each mapper closes its ring; a
// combiner exits once all of its rings are closed and drained.
//
// The three resource-aware mechanisms:
//   * batched reads       — Ring::consume_batch (Sec. III-A, Figs. 6/7);
//   * sleep on failed push — a mapper whose ring is full blocks on its
//     ring's spsc::Doorbell and gives its core to the combiner
//     (Sec. III-A); an idle combiner blocks on its ring set's bell;
//   * contention-aware pinning — topo::make_plan(kRamrPaired) places each
//     combiner on a logical CPU adjacent to its mappers (Sec. III-B).
//
// Failure protocol (docs/ARCHITECTURE.md §6): the first failing worker
// records an attributed cancel on the run's CancellationToken and rethrows
// its exception; every peer polls the token — mappers at task boundaries
// and inside the full-ring push loop, combiners every sweep, both after
// every bounded block — and exits quietly, so the pool carrying the root
// cause is the only one that reports. A mapper that dies still closes its
// ring (so combiners can terminate even mid-cancel), and the pools are
// joined through engine::join_pools_rethrow_first (which surfaces, not
// drops, a second pool's suppressed error).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "containers/container_traits.hpp"
#include "engine/app_model.hpp"
#include "engine/emit_strategy.hpp"
#include "engine/result.hpp"
#include "sched/tree_merge.hpp"
#include "spsc/doorbell.hpp"
#include "spsc/ring.hpp"
#include "spsc/ring_set.hpp"

namespace ramr::engine {

template <mr::AppSpec App>
class PipelinedSpsc {
 public:
  using Container = typename App::container_type;
  using key_type = mr::key_type_of<App>;
  using value_type = mr::value_type_of<App>;
  using Record = containers::KeyValue<key_type, value_type>;
  static constexpr bool kHasReduce = true;
  static constexpr const char* kName = "pipelined";

  void map_combine(MapCombineContext& ctx, const App& app,
                   const typename App::input_type& input,
                   RunResult<key_type, value_type>& result) {
    const RuntimeConfig& cfg = ctx.pools.config();
    const topo::PinningPlan& plan = ctx.pools.plan();
    if (!ctx.pools.dual() || cfg.num_combiners == 0) {
      throw ConfigError(
          "PipelinedSpsc requires a dual-pool PoolSet with at least one "
          "combiner (got a single-pool/zero-combiner configuration)");
    }

    // One ring per mapper (single producer); each combiner drains a
    // disjoint ring set (single consumer) — SPSC suffices (Sec. III-A).
    rings_.clear();
    rings_.reserve(cfg.num_mappers);
    for (std::size_t m = 0; m < cfg.num_mappers; ++m) {
      rings_.push_back(
          std::make_unique<spsc::Ring<Record>>(cfg.queue_capacity));
    }
    combiner_containers_.clear();
    combiner_containers_.reserve(cfg.num_combiners);
    for (std::size_t j = 0; j < cfg.num_combiners; ++j) {
      ctx.injector.on_container_alloc();
      combiner_containers_.push_back(app.make_container());
    }

    std::atomic<std::size_t> tasks_executed{0};
    std::atomic<std::size_t> blocking_waits{0};

    // Full-ring and empty-ring waits (Sec. III-A, mechanism 2). Mapper m
    // blocks on space[m] until the combiner has drained its ring to at
    // most half full; combiner j blocks on work[j] until one of its mappers
    // has pushed a batch, ended a task, closed or blocked. The two
    // thresholds keep either side from waking the other per record.
    std::vector<spsc::Doorbell> space(cfg.num_mappers);
    std::vector<spsc::Doorbell> work(cfg.num_combiners);
    const std::size_t half_full = rings_.front()->capacity() / 2;

    // Producer-side emit batching: 0 keeps the element-wise try_push path.
    const std::size_t emit_batch = cfg.emit_batch;

    // Ring-occupancy time-series: total elements queued across all rings,
    // snapshotted by the sampler thread (Ring::size() is a cross-thread-safe
    // approximation). Removed before map_combine returns, so the probe
    // never outlives the rings it reads.
    telemetry::Sampler::ProbeHandle occupancy_probe;
    if (ctx.telemetry != nullptr && ctx.telemetry->sampler() != nullptr) {
      occupancy_probe = ctx.telemetry->sampler()->scoped_probe(
          "queue_occupancy_total", [this] {
            std::size_t total = 0;
            for (const auto& ring : rings_) total += ring->size();
            return static_cast<double>(total);
          });
    }

    const auto combiner_job = [&](std::size_t j) {
      Heartbeats::Slot& beat = ctx.beats.combiner(j);
      ActiveScope live(beat);
      std::vector<spsc::Ring<Record>*> mine;
      for (std::size_t m : plan.mappers_of_combiner[j]) {
        mine.push_back(rings_[m].get());
      }
      spsc::RingSet<Record> set(std::move(mine));
      Container& container = combiner_containers_[j];
      trace::Lane* lane = ctx.lanes.combiner[j];
      telemetry::EngineMetrics* tm = ctx.metrics();
      const std::size_t slot = tm != nullptr ? tm->combiner_slot(j) : 0;
      std::size_t waits = 0;
      const auto ready = [&] { return set.ready() || ctx.cancel.cancelled(); };
      const auto consume = [&container](std::span<Record> block) {
        for (Record& r : block) {
          container.emit(r.key, r.value);
        }
      };
      // Flushes wait/batch accounting into metrics and the shared counter;
      // runs on success and on the failure paths alike (the consumer-side
      // ring stats are safe to read here: this thread is the consumer).
      const auto account = [&] {
        blocking_waits.fetch_add(waits, std::memory_order_relaxed);
        if (tm == nullptr) return;
        tm->backoff_sleeps->add(slot, waits);
        std::uint64_t batch_total = 0;
        std::size_t max_occupancy = 0;
        for (std::size_t m : plan.mappers_of_combiner[j]) {
          const auto& cs = rings_[m]->consumer_stats();
          batch_total += cs.batches;
          max_occupancy = std::max(max_occupancy, cs.max_occupancy);
        }
        tm->queue_batches->add(slot, batch_total);
        tm->queue_max_occupancy->set(slot,
                                     static_cast<double>(max_occupancy));
      };
      std::size_t batches = 0;
      try {
        for (;;) {
          if (ctx.cancel.cancelled()) break;
          const std::size_t got = set.sweep(consume, cfg.batch_size);
          beat.bump();
          if (lane != nullptr) {
            lane->record(ctx.lanes.epoch,
                         got > 0 ? trace::EventKind::kDrainActive
                                 : trace::EventKind::kDrainIdle,
                         got);
          }
          if (got == 0) {
            if (set.finished()) break;
            if (work[j].wait(ready)) {
              ++waits;
              if (lane != nullptr) {
                lane->record(ctx.lanes.epoch, trace::EventKind::kBackoffSleep,
                             1);
              }
            }
          } else {
            for (std::size_t m : plan.mappers_of_combiner[j]) {
              space[m].notify_if(
                  [&] { return rings_[m]->size() <= half_full; });
            }
            if (tm != nullptr) tm->batch_sizes->record(slot, got);
            ctx.injector.on_combiner_batch(j, ++batches);
            // Periodic live occupancy sample for the metrics snapshot and
            // the sampler (the final value still lands via account());
            // every 32nd batch keeps the sweep loop lean.
            if (tm != nullptr && (batches & 31U) == 0) {
              std::size_t occ = 0;
              for (std::size_t m : plan.mappers_of_combiner[j]) {
                occ = std::max(occ, rings_[m]->consumer_stats().max_occupancy);
              }
              tm->queue_max_occupancy->set(slot, static_cast<double>(occ));
            }
          }
        }
      } catch (const std::exception& e) {
        ctx.cancel.cancel(common::CancelCause::kWorkerFailed, "map-combine",
                          "combiner-" + std::to_string(j), e.what());
        account();
        throw;
      }
      account();
      if (lane != nullptr) {
        lane->record(ctx.lanes.epoch, trace::EventKind::kDrainDone, j);
      }
    };

    const auto mapper_job = [&](std::size_t m) {
      spsc::Ring<Record>& ring = *rings_[m];
      spsc::Doorbell& combiner_bell = work[plan.combiner_of_mapper(m)];
      TaskLoopControl ctl = TaskLoopControl::create(ctx, m);
      ActiveScope live(ctl.beat);
      trace::Lane* lane = ctl.lane;
      telemetry::EngineMetrics* tm = ctl.metrics;
      std::size_t executed = 0;
      std::size_t waits = 0;
      // Records pushed since this mapper last rang its combiner's bell.
      std::size_t unrung = 0;
      std::vector<Record> emit_buf;
      const auto ring_combiner = [&] {
        unrung = 0;
        combiner_bell.notify();
      };
      const auto pushed = [&](std::size_t n) {
        unrung += n;
        if (unrung >= cfg.batch_size) ring_combiner();
      };
      const auto close_ring = [&] {
        ring.close();
        combiner_bell.notify();
      };
      const auto drained = [&] {
        return ring.size() <= half_full || ctx.cancel.cancelled();
      };
      // One blocked-on-full-ring wait step, shared by the element-wise
      // push loop and the batched flush loop.
      auto wait_full = [&] {
        // Live mirror of the ring's failed-push count, so the periodic
        // metrics snapshot sees congestion mid-phase, not at join.
        if (tm != nullptr) tm->queue_failed_pushes->increment(m);
        if (ctx.cancel.cancelled()) {
          // Unwind out of app.map; the wrapper below exits quietly
          // (the peer that caused the cancel reports the error).
          throw common::CancelledError(
              "mapper-" + std::to_string(m) +
              ": run cancelled while blocked on a full ring");
        }
        ctl.beat.bump();
        ring_combiner();
        if (space[m].wait(drained)) {
          ++waits;
          if (lane != nullptr) {
            lane->record(ctx.lanes.epoch, trace::EventKind::kBackoffSleep, 1);
          }
        }
      };
      // `emit` feeds records toward the ring — directly, or staged through
      // the emit buffer when producer batching is on; the per-task hook
      // flushes the emit buffer so the combiners keep receiving data at
      // task granularity (an idle/stalling mapper never sits on buffered
      // records). Publishes the buffered block through try_push_batch: one
      // release store (and at most one cached-head refresh) per accepted
      // span instead of per element.
      auto flush = [&] {
        std::span<Record> rest(emit_buf.data(), emit_buf.size());
        while (!rest.empty()) {
          const std::size_t n = ring.try_push_batch(rest);
          if (n == 0) {
            wait_full();
            continue;
          }
          rest = rest.subspan(n);
          pushed(n);
        }
        emit_buf.clear();
      };
      auto push_record = [&](Record&& r) {
        ctx.injector.on_emit(m);
        if (emit_batch == 0) {
          while (!ring.try_push(std::move(r))) wait_full();
          pushed(1);
          return;
        }
        emit_buf.push_back(std::move(r));
        if (emit_buf.size() >= emit_batch) flush();
      };
      try {
        // Reserving the flush threshold up front keeps the emit buffer
        // from reallocating mid-phase.
        emit_buf.reserve(emit_batch);
        executed = drain_map_tasks(
            ctl, app, input,
            [&](const key_type& k, const value_type& v) {
              push_record(Record{k, v});
            },
            [&] {
              if (!emit_buf.empty()) flush();
              ring_combiner();
            });
        // Close-time flush: nothing buffered may be lost when the stream
        // ends (the per-task hook normally leaves this empty).
        if (!emit_buf.empty()) flush();
      } catch (const common::CancelledError&) {
        // Cooperative unwind: a peer failed or a watchdog verdict landed.
        // Close even here: combiners must be able to terminate.
        close_ring();
        tasks_executed.fetch_add(executed, std::memory_order_relaxed);
        return;
      } catch (const std::exception& e) {
        ctx.cancel.cancel(common::CancelCause::kWorkerFailed, "map-combine",
                          "mapper-" + std::to_string(m), e.what());
        close_ring();
        throw;
      } catch (...) {
        ctx.cancel.cancel(common::CancelCause::kWorkerFailed, "map-combine",
                          "mapper-" + std::to_string(m),
                          "<non-standard exception>");
        close_ring();
        throw;
      }
      // Map phase over for this mapper: notify the combiner side.
      close_ring();
      blocking_waits.fetch_add(waits, std::memory_order_relaxed);
      if (lane != nullptr) {
        lane->record(ctx.lanes.epoch, trace::EventKind::kStreamClose, m);
      }
      tasks_executed.fetch_add(executed, std::memory_order_relaxed);
      if (tm != nullptr) {
        tm->backoff_sleeps->add(m, waits);
        // Producer-side ring stats, read by their single writer (this
        // thread) after it stopped pushing. Failed pushes were already
        // mirrored live on the full-ring path above.
        tm->queue_pushes->add(m, ring.producer_stats().pushes);
        tm->queue_push_batches->add(m, ring.producer_stats().push_batches);
      }
    };

    ctx.pools.combiner_pool().start(combiner_job);
    ctx.pools.mapper_pool().start(mapper_job);
    join_pools_rethrow_first(ctx.pools.mapper_pool(),
                             ctx.pools.combiner_pool());

    result.tasks_executed = tasks_executed.load();
    result.backoff_sleeps = blocking_waits.load();
    for (const auto& ring : rings_) {
      result.queue_pushes += ring->producer_stats().pushes;
      result.queue_failed_pushes += ring->producer_stats().failed_pushes;
      result.queue_batches += ring->consumer_stats().batches;
      result.queue_push_batches += ring->producer_stats().push_batches;
      result.queue_max_occupancy = std::max(
          result.queue_max_occupancy, ring->consumer_stats().max_occupancy);
    }
    // Skew profiler (RAMR_OBS=full): attribute each ring's end-of-run stats
    // to the combiner that drained it. Pools are joined — single-threaded
    // reads, zero hot-path cost.
    if (ctx.skew != nullptr) {
      for (std::size_t j = 0; j < plan.mappers_of_combiner.size(); ++j) {
        std::uint64_t elements = 0;
        std::uint64_t occupancy = 0;
        for (std::size_t m : plan.mappers_of_combiner[j]) {
          elements += rings_[m]->producer_stats().pushes;
          occupancy = std::max<std::uint64_t>(
              occupancy, rings_[m]->consumer_stats().max_occupancy);
        }
        ctx.skew->add_drained(j, elements, occupancy);
      }
    }
  }

  // Reduce runs on the general-purpose pool ("the top pool ... will be
  // used to execute the tasks of map, reduce and merge"); merge runs
  // serially on the driver thread (engine/phase_driver.hpp).
  void reduce(PoolSet& pools) {
    sched::parallel_tree_merge(pools.mapper_pool(), combiner_containers_);
  }

  void collect(RunResult<key_type, value_type>& result) {
    if (combiner_containers_.empty()) {
      throw Error("PipelinedSpsc::collect: no combiner containers (was "
                  "map_combine run?)");
    }
    result.pairs = containers::to_pairs(combiner_containers_[0]);
  }

 private:
  std::vector<std::unique_ptr<spsc::Ring<Record>>> rings_;
  std::vector<Container> combiner_containers_;
};

}  // namespace ramr::engine
