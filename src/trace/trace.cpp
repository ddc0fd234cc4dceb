#include "trace/trace.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "common/error.hpp"

namespace ramr::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTaskStart: return "task-start";
    case EventKind::kTaskEnd: return "task-end";
    case EventKind::kStreamClose: return "stream-close";
    case EventKind::kDrainActive: return "drain-active";
    case EventKind::kDrainIdle: return "drain-idle";
    case EventKind::kDrainDone: return "drain-done";
    case EventKind::kPhaseStart: return "phase-start";
    case EventKind::kPhaseEnd: return "phase-end";
    case EventKind::kBackoffSleep: return "backoff-sleep";
    case EventKind::kTaskRetry: return "task-retry";
    case EventKind::kIoWindow: return "io-window";
    case EventKind::kIoStall: return "io-stall";
  }
  return "?";
}

Lane::Lane(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  events_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void Lane::record(Clock::time_point epoch, EventKind kind,
                  std::uint64_t arg) {
  if (!recording_marked_) {
    recording_marked_ = true;
    if (seal_ != nullptr) seal_->store(true, std::memory_order_release);
  }
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{seconds_between(epoch, now()), kind, index_, arg});
}

Recorder::Recorder(std::size_t per_lane_capacity)
    : epoch_(now()), per_lane_capacity_(per_lane_capacity) {}

Lane& Recorder::lane(const std::string& name) {
  for (auto& l : lanes_) {
    if (l->name() == name) return *l;
  }
  if (sealed()) {
    throw Error("trace::Recorder::lane: cannot create lane '" + name +
                "' after recording has started (lanes are setup-only; "
                "create every lane before the traced region runs)");
  }
  lanes_.push_back(std::make_unique<Lane>(name, per_lane_capacity_));
  lanes_.back()->set_index(static_cast<std::uint32_t>(lanes_.size() - 1));
  lanes_.back()->bind_seal(&sealed_);
  return *lanes_.back();
}

std::vector<Event> Recorder::collect() const {
  std::vector<Event> all;
  for (const auto& l : lanes_) {
    all.insert(all.end(), l->events().begin(), l->events().end());
  }
  std::sort(all.begin(), all.end(),
            [](const Event& a, const Event& b) { return a.seconds < b.seconds; });
  return all;
}

double Recorder::span() const {
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (const auto& l : lanes_) {
    for (const Event& e : l->events()) {
      if (!any) {
        lo = hi = e.seconds;
        any = true;
      } else {
        lo = std::min(lo, e.seconds);
        hi = std::max(hi, e.seconds);
      }
    }
  }
  return any ? hi - lo : 0.0;
}

std::string render_timeline(const Recorder& recorder, std::size_t width) {
  if (width == 0) throw Error("render_timeline: width must be >= 1");
  const auto events = recorder.collect();
  if (events.empty()) return "(no events)\n";
  const double t0 = events.front().seconds;
  const double t1 = events.back().seconds;
  const double span = std::max(t1 - t0, 1e-9);

  std::ostringstream os;
  std::size_t name_width = 0;
  for (std::size_t i = 0; i < recorder.lane_count(); ++i) {
    name_width = std::max(name_width, recorder.lane_at(i).name().size());
  }
  for (std::size_t i = 0; i < recorder.lane_count(); ++i) {
    const Lane& lane = recorder.lane_at(i);
    std::string row(width, ' ');
    auto bucket_of = [&](double s) {
      const auto b = static_cast<std::size_t>((s - t0) / span *
                                              static_cast<double>(width));
      return std::min(b, width - 1);
    };
    // Active intervals: task start..end pairs; instantaneous marks for
    // drain activity; idle dots.
    double open_task = -1.0;
    for (const Event& e : lane.events()) {
      switch (e.kind) {
        case EventKind::kTaskStart:
          open_task = e.seconds;
          break;
        case EventKind::kTaskEnd:
          if (open_task >= 0.0) {
            for (std::size_t b = bucket_of(open_task);
                 b <= bucket_of(e.seconds); ++b) {
              row[b] = '#';
            }
            open_task = -1.0;
          }
          break;
        case EventKind::kDrainActive:
          row[bucket_of(e.seconds)] = '#';
          break;
        case EventKind::kDrainIdle:
          if (row[bucket_of(e.seconds)] == ' ') row[bucket_of(e.seconds)] = '.';
          break;
        case EventKind::kStreamClose:
        case EventKind::kDrainDone:
          if (row[bucket_of(e.seconds)] == ' ') row[bucket_of(e.seconds)] = '|';
          break;
        default:
          break;
      }
    }
    os << lane.name();
    os << std::string(name_width - lane.name().size(), ' ') << " [" << row
       << "]\n";
  }
  os << std::string(name_width, ' ') << "  0" << std::string(width - 2, '-')
     << "> " << span * 1e3 << " ms\n";
  return os.str();
}

std::string summarize(const Recorder& recorder) {
  std::ostringstream os;
  for (std::size_t i = 0; i < recorder.lane_count(); ++i) {
    const Lane& lane = recorder.lane_at(i);
    std::map<EventKind, std::size_t> counts;
    for (const Event& e : lane.events()) counts[e.kind]++;
    os << lane.name() << ": " << lane.events().size() << " events";
    if (lane.dropped() > 0) os << " (" << lane.dropped() << " dropped)";
    for (const auto& [kind, n] : counts) {
      os << ", " << to_string(kind) << "=" << n;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ramr::trace
