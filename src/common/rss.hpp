// Process-wide peak resident set size, for the memory high-water line in
// RunResult / the run report. Stamped at the end of every run so the
// streaming-IO flat-memory claim is checkable from artifacts.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ramr::common {

// Peak RSS in bytes, 0 where unsupported. The value is monotonic over a
// process lifetime, so cross-run comparisons are only meaningful from fresh
// processes.
//
// Linux reads VmHWM from /proc/self/status: getrusage's ru_maxrss survives
// fork+exec, so a freshly exec'd child would report its parent's peak.
// getrusage remains the fallback where /proc is unavailable.
inline std::size_t peak_rss_bytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::size_t kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::strncmp(line, "VmHWM:", 6) == 0 &&
              std::sscanf(line + 6, "%zu", &kib) == 1;
    }
    std::fclose(f);
    if (found) return kib * 1024;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace ramr::common
