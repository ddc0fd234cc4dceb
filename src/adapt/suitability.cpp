#include "adapt/suitability.hpp"

#include <algorithm>
#include <sstream>

namespace ramr::adapt {

namespace {

// Rule component: value relative to its floor, clamped to [0, 4] so one
// extreme axis cannot buy a verdict on its own.
double component(double value, double floor) {
  if (floor <= 0.0) return 0.0;
  return std::clamp(value / floor, 0.0, 4.0);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

}  // namespace

Verdict judge_counters(const SuitabilityModel& model,
                       const perf::Counters& map_combine) {
  const double ipb = map_combine.ipb();
  const double stalls = map_combine.mspi() + map_combine.rspi();
  Verdict v;
  v.pipelined = ipb >= model.ipb_floor && stalls >= model.stall_floor;
  v.score = component(ipb, model.ipb_floor) *
            component(stalls, model.stall_floor);
  std::ostringstream os;
  os << "ipb=" << fmt(ipb) << (ipb >= model.ipb_floor ? ">=" : "<")
     << fmt(model.ipb_floor) << " mspi+rspi=" << fmt(stalls)
     << (stalls >= model.stall_floor ? ">=" : "<") << fmt(model.stall_floor);
  if (!v.pipelined) {
    os << (ipb < model.ipb_floor ? " (too light to amortize queue traffic)"
                                 : " (stall-free; decoupling buys nothing)");
  }
  v.reason = os.str();
  return v;
}

Verdict judge_empirical(const SuitabilityModel& model,
                        const EmpiricalSample& sample) {
  const double total_cpu = sample.map_cpu_seconds + sample.combine_cpu_seconds;
  const double share =
      total_cpu > 0.0 ? sample.combine_cpu_seconds / total_cpu : 0.0;
  const double per_record_ns =
      sample.records > 0 ? total_cpu / static_cast<double>(sample.records) * 1e9
                         : 0.0;
  Verdict v;
  v.pipelined = per_record_ns >= model.cpu_per_record_floor_ns &&
                share >= model.combine_share_floor;
  v.score = component(per_record_ns, model.cpu_per_record_floor_ns) *
            component(share, model.combine_share_floor);
  std::ostringstream os;
  os << "cpu/record=" << fmt(per_record_ns) << "ns"
     << (per_record_ns >= model.cpu_per_record_floor_ns ? ">=" : "<")
     << fmt(model.cpu_per_record_floor_ns) << "ns combine_share="
     << fmt(share) << (share >= model.combine_share_floor ? ">=" : "<")
     << fmt(model.combine_share_floor);
  if (!v.pipelined) {
    os << (per_record_ns < model.cpu_per_record_floor_ns
               ? " (records too cheap to amortize queue traffic)"
               : " (combine too light to deserve its own pool)");
  }
  v.reason = os.str();
  return v;
}

}  // namespace ramr::adapt
