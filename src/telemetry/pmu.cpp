#include "telemetry/pmu.hpp"

#include <array>
#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define RAMR_HAVE_PERF_EVENT 1
#endif

namespace ramr::telemetry {

#if defined(RAMR_HAVE_PERF_EVENT)

namespace {

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr make_attr(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  attr.inherit = 0;
  return attr;
}

// The four events we try per thread, in PmuSample field order.
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr EventSpec kEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
    // RESOURCE_STALLS.ANY: raw event 0xa2, umask 0x01 (Intel); opening
    // simply fails on other vendors and the event is marked unmeasured.
    {PERF_TYPE_RAW, 0x01a2},
};
constexpr std::size_t kNumEvents = 4;

}  // namespace

const PmuAvailability& pmu_probe() {
  static const PmuAvailability cached = [] {
    PmuAvailability a;
    perf_event_attr attr =
        make_attr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
    const long fd = sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1,
                                        /*group_fd=*/-1, /*flags=*/0);
    if (fd >= 0) {
      close(static_cast<int>(fd));
      a.available = true;
      a.reason = "";
      return a;
    }
    a.available = false;
    a.reason = std::string("perf_event_open failed: ") + std::strerror(errno) +
               " (check /proc/sys/kernel/perf_event_paranoid or container "
               "seccomp policy)";
    return a;
  }();
  return cached;
}

struct PoolPmu::Impl {
  // fds_[thread][event]; -1 = event unavailable for that thread.
  std::vector<std::array<int, kNumEvents>> fds;
  std::array<bool, kNumEvents> event_valid{};  // opened on >= 1 thread
  PmuSample accumulated;

  ~Impl() {
    for (auto& per_thread : fds) {
      for (int fd : per_thread) {
        if (fd >= 0) close(fd);
      }
    }
  }
};

PoolPmu::PoolPmu(const std::vector<std::int64_t>& tids)
    : impl_(std::make_unique<Impl>()) {
  if (!pmu_probe().available) return;
  for (std::int64_t tid : tids) {
    std::array<int, kNumEvents> per_thread;
    per_thread.fill(-1);
    if (tid > 0) {
      for (std::size_t e = 0; e < kNumEvents; ++e) {
        perf_event_attr attr = make_attr(kEvents[e].type, kEvents[e].config);
        const long fd =
            sys_perf_event_open(&attr, static_cast<pid_t>(tid), -1, -1, 0);
        if (fd >= 0) {
          per_thread[e] = static_cast<int>(fd);
          impl_->event_valid[e] = true;
        }
      }
    }
    impl_->fds.push_back(per_thread);
  }
  // Instructions are the metrics' common denominator: without them nothing
  // is derivable, so treat the pool as unmeasured.
  if (!impl_->event_valid[0]) {
    for (auto& per_thread : impl_->fds) {
      for (int& fd : per_thread) {
        if (fd >= 0) {
          close(fd);
          fd = -1;
        }
      }
    }
    impl_->fds.clear();
  }
}

PoolPmu::~PoolPmu() = default;

bool PoolPmu::measuring() const { return !impl_->fds.empty(); }

void PoolPmu::begin() {
  for (auto& per_thread : impl_->fds) {
    for (int fd : per_thread) {
      if (fd < 0) continue;
      ioctl(fd, PERF_EVENT_IOC_RESET, 0);
      ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
    }
  }
}

PmuSample PoolPmu::end() {
  PmuSample sample;
  if (!measuring()) return sample;
  std::array<std::uint64_t, kNumEvents> sums{};
  for (auto& per_thread : impl_->fds) {
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      const int fd = per_thread[e];
      if (fd < 0) continue;
      ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
      std::uint64_t value = 0;
      if (read(fd, &value, sizeof(value)) == sizeof(value)) {
        sums[e] += value;
      }
    }
  }
  sample.instructions = sums[0];
  sample.cycles = sums[1];
  sample.mem_stall_cycles = sums[2];
  sample.resource_stall_cycles = sums[3];
  sample.instructions_valid = impl_->event_valid[0];
  sample.cycles_valid = impl_->event_valid[1];
  sample.mem_stall_valid = impl_->event_valid[2];
  sample.resource_stall_valid = impl_->event_valid[3];
  return sample;
}

#else  // !RAMR_HAVE_PERF_EVENT — non-Linux stub: permanently unavailable.

const PmuAvailability& pmu_probe() {
  static const PmuAvailability cached{
      false, "perf_event_open is not available on this platform"};
  return cached;
}

struct PoolPmu::Impl {};

PoolPmu::PoolPmu(const std::vector<std::int64_t>&)
    : impl_(std::make_unique<Impl>()) {}
PoolPmu::~PoolPmu() = default;
bool PoolPmu::measuring() const { return false; }
void PoolPmu::begin() {}
PmuSample PoolPmu::end() { return PmuSample{}; }

#endif

}  // namespace ramr::telemetry
