// The adaptive runtime controller — closes the paper's resource-aware loop.
//
// The paper reads Fig. 10 offline: a human compares IPB/MSPI/RSPI across
// apps and decides which ones deserve the decoupled architecture. This
// controller makes that decision online, per run:
//
//   probe   Burn a bounded calibration slice of the *real* input under the
//           candidate plans (fused, pipelined at 1-2 ratios). Probe output
//           is real work — partial results are kept and stitched into the
//           final result, so probing costs overhead, never correctness.
//   score   Per-pool thread CPU time (workload-intrinsic, stable even when
//           the probe time-slices on an oversubscribed host) through the
//           suitability model (adapt/suitability.hpp).
//   commit  The winner runs the rest of the input. Explicit env knobs are
//           never overridden: precedence is env > cache > probe > defaults.
//   cache   The committed plan is kept per (app, input bucket, topology),
//           so the next run skips the probe entirely: in memory, or in a
//           file when plan_cache_path (RAMR_PLAN_CACHE) names one.
//   trait   An app that combines in its map (mr::CombinesInMap) needs no
//           probe: the plan is fused at compile time (source "trait"),
//           and nothing is written to the cache.
//   budget  An input too small to afford every candidate's slice
//           (probe_affordable) runs the static plan; no cache is built.
//
// Entry point: run_adaptive(). core::Runtime::run calls it only for a
// non-trait app whose input affords the budget, under the default
// RAMR_ADAPT=probe; every other run, and every run under RAMR_ADAPT=off,
// takes the Runtime's static path and runs no code in this header.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "adapt/plan.hpp"
#include "adapt/plan_cache.hpp"
#include "adapt/suitability.hpp"
#include "common/config.hpp"
#include "common/timing.hpp"
#include "containers/container_traits.hpp"
#include "containers/key_sort.hpp"
#include "engine/phase_driver.hpp"
#include "engine/pool_depot.hpp"
#include "engine/pool_set.hpp"
#include "engine/strategy_fused.hpp"
#include "engine/strategy_pipelined.hpp"
#include "engine/strategy_select.hpp"
#include "telemetry/session.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace ramr::adapt {

struct ControllerOptions {
  // Calibration budget: tasks per candidate (splits = tasks * task_size),
  // and the hard ceiling on the input fraction probing may consume. When
  // the input is too small to afford every candidate, probing is skipped
  // outright and the run proceeds under the static plan.
  std::size_t probe_tasks_per_candidate = 4;
  double max_probe_fraction = 0.5;

  SuitabilityModel model;
};

// Whether the env pinned the pool split, which no plan may then change.
inline bool ratio_pinned(const RuntimeConfig& cfg) {
  return cfg.pinned[Knob::kRatio] || cfg.pinned[Knob::kMappers] ||
         cfg.pinned[Knob::kCombiners];
}

// Whether `total_splits` affords a calibration slice for every candidate
// (fused and pipelined, plus the balanced-ratio pipelined one unless the
// ratio is pinned) within max_probe_fraction of the input. `cfg` is the
// resolved config. core::Runtime and run_adaptive share this rule.
inline bool probe_affordable(const RuntimeConfig& cfg,
                             std::size_t total_splits,
                             const ControllerOptions& options = {}) {
  const std::size_t per = options.probe_tasks_per_candidate * cfg.task_size;
  const std::size_t planned_candidates = ratio_pinned(cfg) ? 2 : 3;
  return per > 0 && total_splits > 0 &&
         static_cast<double>(planned_candidates * per) <=
             options.max_probe_fraction * static_cast<double>(total_splits);
}

// Cache identity of the app: its declared kName when present, the mangled
// type name otherwise (stable within a build, which is all a local plan
// cache needs).
template <typename S>
std::string app_label() {
  if constexpr (requires { S::kName; }) {
    return S::kName;
  } else {
    return typeid(S).name();
  }
}

// A window of [offset, offset+count) splits of the wrapped app. Satisfies
// AppSpec but deliberately does NOT forward the optional reducer: slices
// produce *partial* aggregates, and the reducer (e.g. divide-by-count) is
// only correct once, on the fully merged pairs — the controller applies it
// after stitching.
template <mr::AppSpec S>
struct SliceView {
  using input_type = typename S::input_type;
  using container_type = typename S::container_type;

  const S* app = nullptr;
  std::size_t offset = 0;
  std::size_t count = 0;

  std::size_t num_splits(const input_type&) const { return count; }
  container_type make_container() const { return app->make_container(); }

  template <typename Emit>
  void map(const input_type& input, std::size_t split, Emit&& emit) const {
    app->map(input, offset + split, std::forward<Emit>(emit));
  }
};

namespace detail {

// Folds a probe run's timers and diagnostics into the final result so the
// reported totals cover the whole input, not just the post-probe slice.
template <typename K, typename V>
void accumulate_run(engine::RunResult<K, V>& into,
                    const engine::RunResult<K, V>& part) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    into.timers.add(phase, part.timers.seconds(phase));
  }
  into.tasks_executed += part.tasks_executed;
  into.local_pops += part.local_pops;
  into.steals += part.steals;
  into.queue_pushes += part.queue_pushes;
  into.queue_failed_pushes += part.queue_failed_pushes;
  into.queue_batches += part.queue_batches;
  into.queue_max_occupancy =
      std::max(into.queue_max_occupancy, part.queue_max_occupancy);
  into.backoff_sleeps += part.backoff_sleeps;
  into.task_retries += part.task_retries;
  into.task_aborts += part.task_aborts;
}

}  // namespace detail

// Runs `app` over `input` under the adaptive controller. `recorder` may be
// null (no tracing). The committed plan's knobs hold for the whole main
// run. Pass `base` as the caller gave it, before resolved():
// engine::fused_width reads whether the worker counts were fixed.
//
// Every pool set (probe and main run) is leased from `depot`: a caller that
// passes a long-lived depot (core::Runtime does) amortizes pool spin-up
// across a stream of invocations exactly like the plan cache amortizes the
// probe. With no depot a function-local one is used — single-run behaviour,
// single code path. Likewise `plans`: core::Runtime passes the cache it
// keeps; with none, a PlanCache over plan_cache_path is built here, and only
// once the trait and budget checks have passed.
template <mr::AppSpec S>
mr::result_of<S> run_adaptive(const topo::Topology& topology,
                              const RuntimeConfig& base, const S& app,
                              const typename S::input_type& input,
                              trace::Recorder* recorder = nullptr,
                              ControllerOptions options = {},
                              engine::PoolDepot* depot = nullptr,
                              PlanCache* plans = nullptr) {
  engine::PoolDepot local_depot;
  engine::PoolDepot& pools_from = depot != nullptr ? *depot : local_depot;
  const RuntimeConfig cfg = base.resolved(topology.num_logical());
  const std::size_t fused_width = engine::fused_width(topology, base);
  const bool pinned_ratio = ratio_pinned(cfg);
  const std::size_t total_splits = app.num_splits(input);

  const PlanKey key{app_label<S>(), input_size_bucket(total_splits),
                    topology_hash(topology)};

  PlanDecision decision;
  engine::PlanInfo plan;  // empty strategy = nothing decided yet
  std::size_t probe_used = 0;
  std::vector<mr::result_of<S>> partials;

  // ---- cache lookup, then probe; a trait app or a small input needs
  // neither, and builds no cache ------------------------------------------
  std::optional<PlanCache> local_plans;
  const bool affordable = !mr::CombinesInMap<S> &&
                          probe_affordable(cfg, total_splits, options);
  if (affordable && plans == nullptr) {
    plans = &local_plans.emplace(cfg.plan_cache_path);
  }
  if (!affordable) {
    // The main run below uses the static config; the driver stamps trait
    // or env/default provenance.
  } else if (auto hit = plans->lookup(key)) {
    plan = *hit;
    // Env-pinned knobs beat the cache; unset cached fields fall back to the
    // config so old cache entries stay usable.
    if (pinned_ratio || plan.ratio == 0) {
      plan.ratio = cfg.mapper_combiner_ratio;
    }
    if (cfg.pinned[Knob::kBatchSize] || plan.batch_size == 0) {
      plan.batch_size = cfg.batch_size;
    }
    if (cfg.pinned[Knob::kQueueCapacity] || plan.queue_capacity == 0) {
      plan.queue_capacity = cfg.queue_capacity;
    }
    if (cfg.pinned[Knob::kPinPolicy] || plan.pin_policy.empty()) {
      plan.pin_policy = to_string(cfg.pin_policy);
    }
  } else {
    const std::size_t per = options.probe_tasks_per_candidate * cfg.task_size;
    const engine::DriverOptions probe_opts = engine::driver_options_from(cfg);

    // Fused candidate: one general-purpose pool of engine::fused_width
    // workers. Its slice contributes work and a wall-clock reference;
    // the verdict itself comes from the pipelined probe.
    double fused_wall = 0.0;
    {
      auto lease = pools_from.acquire_single(topology, fused_width, cfg);
      engine::PoolSet& pools = lease.pools();
      engine::PhaseDriver driver(pools, probe_opts);
      engine::FusedCombine<SliceView<S>> strategy;
      const SliceView<S> slice{&app, probe_used, per};
      const auto t0 = now();
      partials.push_back(driver.run(strategy, slice, input));
      fused_wall = seconds_between(t0, now());
      probe_used += per;
    }
    decision.candidates.push_back({"fused", "fused",
                                   cfg.mapper_combiner_ratio, fused_wall,
                                   0.0, false, "baseline calibration slice"});

    const auto probe_pipelined =
        [&](std::size_t ratio) -> std::pair<EmpiricalSample, double> {
      RuntimeConfig pcfg = cfg;
      if (ratio != cfg.mapper_combiner_ratio) {
        pcfg.mapper_combiner_ratio = ratio;
        pcfg.num_mappers = 0;  // re-derive the pool split from the ratio
        pcfg.num_combiners = 0;
      }
      auto lease = pools_from.acquire(topology, pcfg);
      engine::PoolSet& pools = lease.pools();
      engine::PhaseDriver driver(pools, probe_opts);
      engine::PipelinedSpsc<SliceView<S>> strategy;
      const SliceView<S> slice{&app, probe_used, per};
      const double map_cpu0 = pools.mapper_pool().cpu_seconds();
      const double combine_cpu0 = pools.combiner_pool().cpu_seconds();
      const auto t0 = now();
      auto res = driver.run(strategy, slice, input);
      const double wall = seconds_between(t0, now());
      EmpiricalSample sample;
      sample.map_cpu_seconds = pools.mapper_pool().cpu_seconds() - map_cpu0;
      sample.combine_cpu_seconds =
          pools.combiner_pool().cpu_seconds() - combine_cpu0;
      sample.records = res.queue_pushes;
      sample.wall_seconds = wall;
      probe_used += per;
      partials.push_back(std::move(res));
      return {sample, wall};
    };

    std::size_t ratio = cfg.mapper_combiner_ratio;
    const auto [base_sample, base_wall] = probe_pipelined(ratio);
    const Verdict verdict = judge_empirical(options.model, base_sample);
    decision.candidates.push_back(
        {"pipelined@" + std::to_string(ratio), "pipelined", ratio, base_wall,
         verdict.score, verdict.pipelined, verdict.reason});

    if (verdict.pipelined && !pinned_ratio &&
        base_sample.combine_cpu_seconds > 0.0) {
      // The balanced ratio equalizes per-thread load across the pools:
      // each combiner keeps up with `ratio` mappers when map is `ratio`
      // times the CPU of combine (paper Sec. III-B).
      const std::size_t suggested = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::lround(base_sample.map_cpu_seconds /
                          base_sample.combine_cpu_seconds)),
          1, 8);
      if (suggested != ratio) {
        const auto [alt_sample, alt_wall] = probe_pipelined(suggested);
        const Verdict alt = judge_empirical(options.model, alt_sample);
        decision.candidates.push_back({"pipelined@" +
                                           std::to_string(suggested),
                                       "pipelined", suggested, alt_wall,
                                       alt.score, alt.pipelined, alt.reason});
        if (alt_wall < base_wall) ratio = suggested;
      }
    }

    plan.strategy = verdict.pipelined ? "pipelined" : "fused";
    plan.ratio = ratio;
    plan.batch_size = cfg.batch_size;
    plan.queue_capacity = cfg.queue_capacity;
    plan.pin_policy = to_string(cfg.pin_policy);
    plan.source = "probe";
    plans->store(key, plan);
  }
  decision.probe_splits_used = probe_used;

  // ---- commit: build the main-run config from the plan -------------------
  const bool decided = !plan.strategy.empty();
  // A fused plan's knobs are only recorded: its single-pool set carries
  // mcfg, and the run stamps the plan from it.
  RuntimeConfig mcfg = cfg;
  if (decided) {
    if (!pinned_ratio && plan.ratio != cfg.mapper_combiner_ratio) {
      mcfg.mapper_combiner_ratio = plan.ratio;
      mcfg.num_mappers = 0;
      mcfg.num_combiners = 0;
    }
    if (!cfg.pinned[Knob::kBatchSize] && plan.batch_size > 0) {
      mcfg.batch_size = plan.batch_size;
    }
    if (!cfg.pinned[Knob::kQueueCapacity] && plan.queue_capacity > 0) {
      mcfg.queue_capacity = plan.queue_capacity;
    }
    if (!cfg.pinned[Knob::kPinPolicy] && !plan.pin_policy.empty()) {
      mcfg.pin_policy = parse_pin_policy(plan.pin_policy);
    }
  }

  engine::DriverOptions main_opts = engine::driver_options_from(mcfg);
  if (decided) main_opts.plan_source = plan.source;

  // Runs the committed plan, wiring telemetry and tracing around the
  // driver.
  const auto run_main = [&](auto& strategy, engine::PoolSet& pools,
                            const auto& main_app,
                            const engine::DriverOptions& dopts)
      -> mr::result_of<S> {
    engine::PhaseDriver driver(pools, dopts);
    driver.set_recorder(recorder);

    const auto session = telemetry::Session::from_config(
        cfg, pools.num_mappers(), pools.num_combiners());
    driver.set_telemetry(session.get());
    return driver.run(strategy, main_app, input);
  };

  mr::result_of<S> result;
  if constexpr (mr::CombinesInMap<S>) {
    auto [lease, dopts] = engine::lease_for<S>(pools_from, topology, base);
    engine::Strategy<S> strategy;
    result = run_main(strategy, lease.pools(), app, dopts);
  } else if (probe_used > 0) {
    // The probes consumed a prefix; the main run covers the rest through a
    // SliceView (no reducer — it is applied once, after stitching).
    const SliceView<S> rest{&app, probe_used, total_splits - probe_used};
    if (plan.strategy == "fused") {
      auto lease = pools_from.acquire_single(topology, fused_width, mcfg);
      engine::FusedCombine<SliceView<S>> strategy;
      result = run_main(strategy, lease.pools(), rest, main_opts);
    } else {
      auto lease = pools_from.acquire(topology, mcfg);
      engine::PipelinedSpsc<SliceView<S>> strategy;
      result = run_main(strategy, lease.pools(), rest, main_opts);
    }
    // Stitch: partial aggregates re-combine through a fresh container
    // (associative combiners make emitting partials equivalent to the
    // tree-merge the strategies do), then the reducer, then the key sort.
    auto merged = app.make_container();
    for (const auto& part : partials) {
      for (const auto& [k, v] : part.pairs) merged.emit(k, v);
    }
    for (const auto& [k, v] : result.pairs) merged.emit(k, v);
    result.pairs = containers::to_pairs(merged);
    mr::apply_reducer(app, result.pairs);
    containers::sort_by_key(result.pairs);
    for (const auto& part : partials) detail::accumulate_run(result, part);
  } else if (decided && plan.strategy == "fused") {
    auto lease = pools_from.acquire_single(topology, fused_width, mcfg);
    engine::FusedCombine<S> strategy;
    result = run_main(strategy, lease.pools(), app, main_opts);
  } else {
    auto lease = pools_from.acquire(topology, mcfg);
    engine::PipelinedSpsc<S> strategy;
    result = run_main(strategy, lease.pools(), app, main_opts);
  }

  decision.plan = result.plan;
  if (!cfg.adapt_report_path.empty()) {
    std::ofstream out(cfg.adapt_report_path, std::ios::trunc);
    if (out) write_plan_report(out, key, decision);
  }
  return result;
}

}  // namespace ramr::adapt
