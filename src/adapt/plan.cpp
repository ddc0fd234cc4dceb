#include "adapt/plan.hpp"

#include <bit>
#include <ostream>
#include <sstream>

#include "telemetry/json.hpp"

namespace ramr::adapt {

std::string PlanKey::cache_key() const {
  std::ostringstream os;
  os << app << "/b" << size_bucket << "/t" << std::hex << topo_hash;
  return os.str();
}

std::size_t input_size_bucket(std::size_t num_splits) {
  return static_cast<std::size_t>(std::bit_width(num_splits));
}

std::uint64_t topology_hash(const topo::Topology& topology) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (char c : topology.name()) mix(static_cast<std::uint64_t>(c));
  mix(topology.num_logical());
  mix(topology.num_sockets());
  mix(topology.num_cores());
  mix(topology.smt_per_core());
  return h;
}

void write_plan_report(std::ostream& out, const PlanKey& key,
                       const PlanDecision& decision) {
  telemetry::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "ramr-adapt-plan-v1");
  w.begin_object("key");
  w.field("app", key.app);
  w.field("size_bucket", static_cast<std::uint64_t>(key.size_bucket));
  w.field("topology_hash", key.topo_hash);
  w.end_object();
  w.begin_object("plan");
  w.field("strategy", decision.plan.strategy);
  w.field("ratio", static_cast<std::uint64_t>(decision.plan.ratio));
  w.field("batch_size", static_cast<std::uint64_t>(decision.plan.batch_size));
  w.field("queue_capacity",
          static_cast<std::uint64_t>(decision.plan.queue_capacity));
  w.field("pin_policy", decision.plan.pin_policy);
  w.field("source", decision.plan.source);
  w.end_object();
  w.begin_array("candidates");
  for (const CandidateScore& c : decision.candidates) {
    w.begin_object();
    w.field("label", c.label);
    w.field("strategy", c.strategy);
    w.field("ratio", static_cast<std::uint64_t>(c.ratio));
    w.field("probe_seconds", c.probe_seconds);
    w.field("score", c.score);
    w.field("pipelined_verdict", c.pipelined_verdict);
    w.field("reason", c.reason);
    w.end_object();
  }
  w.end_array();
  w.field("probe_splits_used",
          static_cast<std::uint64_t>(decision.probe_splits_used));
  w.end_object();
  out << '\n';
}

}  // namespace ramr::adapt
