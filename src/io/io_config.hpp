// Streaming-input configuration: the RAMR_IO* knobs (src/io/), carried in
// RuntimeConfig::io and read by RuntimeConfig::from_env.
//
// RAMR_IO selects the source machinery:
//
//   off    (default) every app materializes its input up front
//          (apps/io.hpp) — byte-identical to the pre-streaming runtime;
//   mmap   sliding per-window mmap/munmap with MADV_SEQUENTIAL on arrival
//          and MADV_DONTNEED + munmap on retirement — note *per-window*
//          mappings, so address-space usage (ulimit -v) stays bounded by
//          the window budget, never the file size;
//   direct O_DIRECT double-buffered reads on the IO lane, falling back to
//          buffered + posix_fadvise where the filesystem refuses O_DIRECT
//          (the PMU capability-probe convention).
//
// RAMR_IO_WINDOW bounds one window's bytes and RAMR_IO_DEPTH the in-flight
// window budget, so the streaming working set is window_bytes × depth
// regardless of input size — the flat memory high-water line the run
// report's "memory" object proves.
#pragma once

#include <cstddef>
#include <string>

namespace ramr::io {

enum class IoMode { kOff, kMmap, kDirect };

// Defined with the other knob spellings in common/config.cpp.
std::string to_string(IoMode mode);

struct IoConfig {
  IoMode mode = IoMode::kOff;
  std::size_t window_bytes = 8 * 1024 * 1024;  // RAMR_IO_WINDOW (bytes)
  std::size_t depth = 3;                       // RAMR_IO_DEPTH (windows)

  bool enabled() const { return mode != IoMode::kOff; }
};

}  // namespace ramr::io
