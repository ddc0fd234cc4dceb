#include "sim/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "perf/stall_model.hpp"
#include "topology/pinning.hpp"

namespace ramr::sim {

namespace {

using perf::Counters;
using perf::MemSystemView;
using perf::PhaseProfile;

// ---- tuning constants (documented rationale) --------------------------------

// Fusion penalty: the combine's irregular container traffic interleaved
// into the map stream thrashes the private caches and lengthens the miss
// chains the OoO window must absorb. Scaled by how irregular BOTH phases
// are — two streaming phases interleave for free.
constexpr double kFusionMemAmp = 8.0;
// Interference cannot amplify stalls without bound (a DRAM-bound miss is
// not made 8x slower by a busy sibling); both penalty terms saturate.
constexpr double kFusionMemCap = 2.2;
constexpr double kFusionResCap = 3.5;
// The Fig. 10 profiles are measured over the *fused* map-combine phase;
// the isolated phases RAMR runs stall somewhat less (private stream, no
// container interleave in the same window).
constexpr double kDecoupleRelief = 0.8;
// Fusion penalty: mixed map+combine dependency chains keep the ROB/RS/LSB
// full far more often than either phase alone (Sec. IV-E). Scaled by the
// *product* of the phases' resource pressures: the penalty exists only when
// both sides compete for back-end resources.
constexpr double kFusionResAmp = 9.0;
// Wider SMT (Phi's 4-way) packs more fused threads per core, worsening both
// interference terms.
double smt_amp_scale(double smt) { return 1.0 + 0.3 * std::max(0.0, smt - 2.0); }
// Per-emission cost of the inline combine call in the fused baseline
// (function call + container index math), cycles per record.
constexpr double kInlineEmitCycles = 3.0;
// Fraction of producer issue demand a busy-waiting (spinning) blocked
// mapper still burns on its core, starving a co-located combiner.
constexpr double kSpinIssueShare = 0.85;
// Residual wake-up overhead of sleep-on-failed-push.
constexpr double kSleepOverhead = 0.03;
// Consumer-side streaming: larger contiguous batches let the prefetcher
// hide part of the producer-to-consumer line transfers (floor at 35% —
// coherence transfers stream less perfectly than DRAM).
double batch_stream_factor(double batch) {
  return 0.35 + 0.65 / std::sqrt(std::max(1.0, batch));
}
// Producer-side share of the line ping-pong: once the ring is deeper than
// the producer's L1, every push re-acquires ownership of a line the
// consumer read on the previous lap (MESI RFO priced at the same distance
// tier).
constexpr double kProducerRfoShare = 0.3;
// Combiner idle while the queue fills to a deep batch threshold.
double batch_fill_idle(double batch, double capacity) {
  return 1.0 / (1.0 - 0.35 * std::min(0.95, batch / capacity));
}

// ---- capacity views -----------------------------------------------------------

// Per-thread view: cache capacities divided among sharers proportionally to
// footprint (a bigger working set claims more of a shared cache).
MemSystemView make_view(const SimMachine& m, double my_fp, double core_fp,
                        double socket_fp, std::size_t threads_per_socket) {
  MemSystemView v;
  const double core_w = core_fp > 0.0 ? my_fp / core_fp : 1.0;
  const double socket_w = socket_fp > 0.0 ? my_fp / socket_fp : 1.0;
  v.l1_bytes = m.l1_bytes * core_w;
  if (m.l2_shared_ring) {
    // Phi: all L2 slices form one shared cache for the whole package.
    const double total_l2 =
        m.l2_bytes * static_cast<double>(m.topology.num_cores());
    v.l2_bytes = total_l2 * socket_w;
  } else {
    v.l2_bytes = m.l2_bytes * core_w;
  }
  v.l3_bytes = m.l3_bytes > 0.0 ? m.l3_bytes * socket_w : 0.0;
  v.l2_latency = m.l2_latency;
  v.l3_latency = m.l3_latency;
  v.mem_latency = m.mem_latency;
  v.out_of_order = m.out_of_order;
  (void)threads_per_socket;
  return v;
}

struct PhaseCost {
  double cpu = 0.0;  // cycles/byte of compute issue
  double mem = 0.0;  // cycles/byte of memory stalls
  double res = 0.0;  // cycles/byte of resource stalls
  double total() const { return cpu + mem + res; }
};

PhaseCost phase_cost(const SimMachine& m, const PhaseProfile& p,
                     const MemSystemView& view) {
  const Counters c = perf::estimate_phase(p, 1.0, view);
  return {c.instructions / m.thread_ipc, c.mem_stall_cycles,
          c.resource_stall_cycles};
}

// SMT issue sharing: `demands` are the per-thread compute utilisations
// (cpu / total cycles) of the threads resident on one core. Returns the
// dilation factor applied to every resident thread's cpu component.
double issue_dilation(const SimMachine& m, double total_demand) {
  const double capacity = m.core_issue / m.thread_ipc;
  return std::max(1.0, total_demand / capacity);
}

// Memory-bandwidth dilation for stall components on one socket.
double bw_dilation(const SimMachine& m, double traffic_gbps) {
  return std::max(1.0, traffic_gbps / m.socket_mem_bw_gbps);
}

double hz(const SimMachine& m) { return m.freq_ghz * 1e9; }

// Shared tail phases (identical structure for both runtimes).
void fill_tail_phases(const SimMachine& m, const SimWorkload& w,
                      std::size_t containers, PhaseBreakdown& phases) {
  const double container_bytes = w.profile.container_bytes;
  const double workers = static_cast<double>(m.topology.num_logical());
  // Reduce: Phoenix++-style parallel key-range merge — every worker folds
  // its slice of the key space across all thread-local containers.
  phases.reduce = static_cast<double>(containers) * container_bytes * 1.5 /
                  workers / hz(m);
  // Merge: parallel sort of the final container's entries.
  const double entries = std::max(1.0, container_bytes / 16.0);
  const double sort_cycles = entries * std::log2(entries + 2.0) * 3.0;
  phases.merge = sort_cycles / std::max(1.0, workers / 2.0) / hz(m);
  // Split: one streaming pass to locate split boundaries.
  phases.split = w.input_bytes * 0.02 / hz(m);
}

}  // namespace

// ---- Phoenix++ ------------------------------------------------------------------

BaselineResult simulate_phoenix(const SimMachine& m, const SimWorkload& w) {
  BaselineResult r;
  const auto& prof = w.profile;
  const std::size_t workers = m.topology.num_logical();
  const std::size_t smt = m.topology.smt_per_core();
  const std::size_t per_socket = workers / m.topology.num_sockets();

  const double fp_fused =
      prof.map.footprint_bytes + prof.combine.footprint_bytes;
  const double core_fp = static_cast<double>(smt) * fp_fused;
  const double socket_fp = static_cast<double>(per_socket) * fp_fused;

  const MemSystemView view_m =
      make_view(m, prof.map.footprint_bytes, core_fp, socket_fp, per_socket);
  const MemSystemView view_c = make_view(m, prof.combine.footprint_bytes,
                                         core_fp, socket_fp, per_socket);
  const PhaseCost cm = phase_cost(m, prof.map, view_m);
  const PhaseCost cc = phase_cost(m, prof.combine, view_c);

  // Fusion penalties (see constants above).
  const double amp_scale = smt_amp_scale(static_cast<double>(smt));
  const double container_pressure =
      std::min(1.0, prof.combine.footprint_bytes /
                        std::max(1.0, view_c.l2_bytes));
  const double mem_amp =
      1.0 + std::min(kFusionMemCap,
                     kFusionMemAmp * amp_scale *
                         (1.0 - prof.map.regularity + 0.15) *
                         (1.0 - prof.combine.regularity) * container_pressure);
  const double res_amp =
      1.0 + std::min(kFusionResCap,
                     kFusionResAmp * amp_scale * prof.map.resource_pressure *
                         prof.combine.resource_pressure);
  const double cpu = cm.cpu + cc.cpu +
                     prof.kv_per_byte * kInlineEmitCycles;
  const double mem = (cm.mem + cc.mem) * mem_amp;
  const double res = (cm.res + cc.res) * res_amp;

  // SMT issue sharing among `smt` identical fused threads.
  const double solo = cpu + mem + res;
  const double demand = static_cast<double>(smt) * (cpu / solo);
  const double f_issue = issue_dilation(m, demand);
  double cycles = cpu * f_issue + mem + res;

  // Socket bandwidth.
  const double traffic_bytes =
      prof.map.bytes_per_byte + prof.combine.bytes_per_byte;
  const double traffic_gbps = traffic_bytes * m.freq_ghz *
                              static_cast<double>(per_socket) / cycles;
  const double f_bw = bw_dilation(m, traffic_gbps);
  cycles = cpu * f_issue + mem * f_bw + res;

  r.cycles_per_byte = cycles;
  r.phases.map_combine =
      w.input_bytes / static_cast<double>(workers) * cycles / hz(m);
  fill_tail_phases(m, w, workers, r.phases);

  // Fig. 10 counters: what PMUs would report over the map-combine phase.
  r.counters = perf::estimate_phase(prof.map, w.input_bytes, view_m);
  Counters comb = perf::estimate_phase(prof.combine, w.input_bytes, view_c);
  comb.input_bytes = 0.0;  // same input stream, do not double count
  r.counters += comb;
  r.counters.mem_stall_cycles *= mem_amp;
  r.counters.resource_stall_cycles *= res_amp;
  return r;
}

// ---- RAMR -----------------------------------------------------------------------

RamrResult simulate_ramr(const SimMachine& m, const SimWorkload& w,
                         const RamrConfig& cfg) {
  if (cfg.ratio == 0) throw ConfigError("simulate_ramr: ratio must be >= 1");
  if (cfg.batch == 0 || cfg.batch > cfg.queue_capacity) {
    throw ConfigError("simulate_ramr: need 1 <= batch <= queue capacity");
  }
  RamrResult r;
  const auto& prof = w.profile;
  const std::size_t logical = m.topology.num_logical();
  const std::size_t group_threads = cfg.ratio + 1;
  const std::size_t groups =
      std::max<std::size_t>(1, logical / group_threads);
  const std::size_t mappers = groups * cfg.ratio;
  const std::size_t combiners = groups;
  r.num_mappers = mappers;
  r.num_combiners = combiners;

  // ---- communication distance from the actual pinning plan --------------
  double comm_cycles_per_line;
  double placement_penalty = 1.0;
  if (cfg.pin == PinPolicy::kOsDefault) {
    // Unpinned: the Linux scheduler keeps threads loosely spread; pairs
    // land in the same socket most of the time but rarely share a core,
    // and migrations add a small tax.
    const bool multi_socket = m.topology.num_sockets() > 1;
    comm_cycles_per_line =
        multi_socket ? 0.75 * m.comm_line_same_socket +
                           0.25 * m.comm_line_cross_socket
                     : m.comm_line_same_socket;
    placement_penalty = 1.03;
  } else {
    const topo::PinningPlan plan =
        topo::make_plan(m.topology, cfg.pin, mappers, combiners);
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t j = 0; j < plan.mappers_of_combiner.size(); ++j) {
      for (std::size_t mi : plan.mappers_of_combiner[j]) {
        sum += m.comm_line(
            m.topology.distance(plan.mapper_cpu[mi], plan.combiner_cpu[j]));
        ++pairs;
      }
    }
    comm_cycles_per_line = pairs > 0 ? sum / static_cast<double>(pairs)
                                     : m.comm_line_same_core;
  }
  r.mean_comm_cycles_per_line = comm_cycles_per_line;

  // ---- per-thread cache views --------------------------------------------
  // Under the paired policy a core hosts a slice of the group's mapper +
  // combiner mix; role-oblivious placements tend to co-locate same-role
  // threads (two mappers, or two combiners, per core).
  const bool paired = cfg.pin == PinPolicy::kRamrPaired;
  const std::size_t per_socket =
      (mappers + combiners) / m.topology.num_sockets();
  const double fp_m = prof.map.footprint_bytes;
  const double fp_c = prof.combine.footprint_bytes;
  const double smt = static_cast<double>(m.topology.smt_per_core());
  const double mix_fp = (static_cast<double>(cfg.ratio) * fp_m + fp_c) /
                        static_cast<double>(group_threads);
  const bool role_mixed_cores = paired || !m.out_of_order;
  const double core_fp_m = role_mixed_cores ? mix_fp * smt : smt * fp_m;
  const double core_fp_c = role_mixed_cores ? mix_fp * smt : smt * fp_c;
  const double socket_fp =
      static_cast<double>(per_socket) * mix_fp;

  const MemSystemView view_m =
      make_view(m, fp_m, core_fp_m, socket_fp, per_socket);
  const MemSystemView view_c =
      make_view(m, fp_c, core_fp_c, socket_fp, per_socket);
  PhaseCost cm = phase_cost(m, prof.map, view_m);
  PhaseCost cc = phase_cost(m, prof.combine, view_c);
  cm.mem *= kDecoupleRelief;
  cm.res *= kDecoupleRelief;
  cc.mem *= kDecoupleRelief;
  cc.res *= kDecoupleRelief;

  // ---- queue costs ---------------------------------------------------------
  const double kv_per_byte = prof.kv_per_byte;
  const double batch = static_cast<double>(cfg.batch);
  const double lines_per_kv = prof.comm_lines_per_kv > 0.0
                                  ? prof.comm_lines_per_kv
                                  : prof.kv_bytes / 64.0;
  // Producer: per-record push stores, plus line-ownership RFOs once the
  // ring no longer fits its L1 (the consumer held those lines last lap).
  const double ring_bytes =
      static_cast<double>(cfg.queue_capacity) * prof.kv_bytes;
  const double rfo = ring_bytes > view_m.l1_bytes
                         ? kv_per_byte * lines_per_kv *
                               comm_cycles_per_line * kProducerRfoShare
                         : 0.0;
  const double push = kv_per_byte * m.queue_push_cycles + rfo;
  const double pop_ctrl =
      kv_per_byte * (m.queue_pop_batch_cycles / batch +
                     m.queue_pop_elem_cycles);
  const double comm = kv_per_byte * lines_per_kv *
                      comm_cycles_per_line * batch_stream_factor(batch);
  // Over-deep batches spill the consumer's L1 share; in-order cores eat the
  // refetch latency in full, which is why Phi prefers batches of 20-500
  // while Haswell tolerates ~1000 (Fig. 7).
  const double batch_bytes = batch * prof.kv_bytes;
  const double spill_latency =
      m.out_of_order ? m.l2_latency : 2.0 * m.l2_latency;
  const double spill =
      batch_bytes > view_c.l1_bytes
          ? kv_per_byte * lines_per_kv * spill_latency *
                (1.0 - view_c.l1_bytes / batch_bytes)
          : 0.0;

  // ---- per-side cycles/byte -------------------------------------------------
  // Mapper: map work plus pushes (pushes are compute: stores to a hot line).
  double map_cpu = cm.cpu + push;
  double map_stall = cm.mem + cm.res;
  // Combiner, per byte of its group's input stream: combine work plus the
  // amortised pop handshake plus the transfer costs (stall-like).
  double comb_cpu = cc.cpu + pop_ctrl;
  double comb_stall = (cc.mem + comm + spill) + cc.res;

  // ---- SMT issue sharing within a group's cores ------------------------------
  // Paired placement: each core hosts the group's mapper:combiner mix —
  // complementary demands share the issue width gracefully. Role-oblivious
  // placements co-locate same-role threads: smt mappers (or combiners)
  // contend with identical demands.
  const double c_map_solo = map_cpu + map_stall;
  const double c_comb_solo = comb_cpu + comb_stall;
  const double u_map = map_cpu / c_map_solo;
  const double u_comb = comb_cpu / c_comb_solo;
  // In-order barrel schedulers (Phi) issue round-robin among hardware
  // threads whatever they are doing, so placement cannot change the issue
  // sharing there — one of the two reasons the pinning policy barely
  // matters on Phi (the other is the uniform ring-L2 distance).
  double f_issue_m;
  double f_issue_c;
  if (paired || !m.out_of_order) {
    const double mix_demand =
        smt * (static_cast<double>(cfg.ratio) * u_map + u_comb) /
        static_cast<double>(group_threads);
    f_issue_m = f_issue_c = issue_dilation(m, mix_demand);
  } else {
    f_issue_m = issue_dilation(m, smt * u_map);
    f_issue_c = issue_dilation(m, smt * u_comb);
  }

  double c_map = map_cpu * f_issue_m + map_stall;
  double c_comb = comb_cpu * f_issue_c + comb_stall;

  // ---- bandwidth -------------------------------------------------------------
  const double socket_groups =
      static_cast<double>(groups) / static_cast<double>(m.topology.num_sockets());
  const double group_rate_est =
      std::min(static_cast<double>(cfg.ratio) / c_map, 1.0 / c_comb);
  const double traffic_bytes = prof.map.bytes_per_byte +
                               prof.combine.bytes_per_byte +
                               2.0 * kv_per_byte * prof.kv_bytes / 64.0;
  const double traffic_gbps =
      traffic_bytes * m.freq_ghz * socket_groups * group_rate_est;
  const double f_bw = bw_dilation(m, traffic_gbps);
  c_map = map_cpu * f_issue_m + cm.mem * f_bw + cm.res;
  c_comb = comb_cpu * f_issue_c + (cc.mem + comm + spill) * f_bw + cc.res;

  // ---- pipeline balance -------------------------------------------------------
  // Group throughput (bytes/cycle): mappers produce at ratio/c_map, the
  // combiner consumes at 1/c_comb (idle factor for deep batches).
  const double idle = batch_fill_idle(batch, static_cast<double>(cfg.queue_capacity));
  double c_comb_eff = c_comb * idle;
  double produce = static_cast<double>(cfg.ratio) / c_map;
  double consume = 1.0 / c_comb_eff;
  r.mapper_limited = produce <= consume;

  if (!r.mapper_limited) {
    // Producers block on full queues. Busy-wait keeps spinning mappers on
    // the combiner's core burning issue slots; sleep frees them.
    const double blocked_share = 1.0 - consume / produce;
    const double extra =
        cfg.sleep_on_full
            ? kSleepOverhead
            : kSpinIssueShare * blocked_share *
                  (static_cast<double>(cfg.ratio) * u_map) /
                  std::max(1.0, smt - 1.0);
    c_comb_eff *= 1.0 + extra;
    consume = 1.0 / c_comb_eff;
  }
  const double group_rate = std::min(produce, consume);

  r.mapper_cycles_per_byte = c_map;
  r.combiner_cycles_per_byte = c_comb_eff;

  const double group_bytes =
      w.input_bytes / static_cast<double>(groups);
  r.phases.map_combine =
      group_bytes / group_rate / hz(m) * placement_penalty;
  fill_tail_phases(m, w, combiners, r.phases);
  return r;
}

double ramr_speedup(const SimMachine& m, const SimWorkload& w,
                    const RamrConfig& cfg) {
  const double base = simulate_phoenix(m, w).phases.total();
  const double ours = simulate_ramr(m, w, cfg).phases.total();
  return base / ours;
}

RamrConfig tuned_config(const SimMachine& m, const SimWorkload& w,
                        RamrConfig base) {
  // Descending sweep with a 3% tie band favouring *larger* ratios: when a
  // single combiner can keep up with more mappers, spending threads on
  // mappers is the better use of the machine (paper Fig. 4: light combine
  // -> ratio 3).
  RamrConfig best = base;
  double best_time = -1.0;
  for (std::size_t ratio : {4u, 3u, 2u, 1u}) {
    RamrConfig c = base;
    c.ratio = ratio;
    const double t = simulate_ramr(m, w, c).phases.total();
    if (best_time < 0.0 || t < best_time * 0.97) {
      best_time = t;
      best = c;
    }
  }
  return best;
}

}  // namespace ramr::sim
