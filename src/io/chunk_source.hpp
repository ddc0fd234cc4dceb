// ChunkSource — bounded, record-aligned windows over a byte stream.
//
// The streaming contract: next() yields consecutive windows of at most
// `window_bytes` (IoConfig) whose concatenation is exactly the input
// stream, each cut only at a record break (for text, any whitespace byte —
// so no word is ever split across windows; binary streams cut anywhere).
// The cut tail of a window is carried over by the source itself, so
// callers never see a partial record. retire() releases a window's
// resources once every map task over it completed — for the mmap source
// that is the MADV_DONTNEED + munmap that keeps the resident set flat.
//
// Threading: next()/retire() are called only from the IO-lane feeder
// thread (src/io/stream_feeder.hpp); sources need no internal locking.
//
// Sources:
//   MmapChunkSource — per-window mmap/munmap sliding over the file (NOT a
//     whole-file mapping: address space stays bounded by the window
//     budget, so ulimit -v caps hold), MADV_SEQUENTIAL on arrival;
//   CopyChunkSource — fills caller scratch buffers from a ByteReader:
//     plain buffered reads, O_DIRECT (aligned bounce buffer, buffered
//     fallback when the filesystem refuses), or gzip inflate (io/gzip.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/io_config.hpp"
#include "simd/kernels.hpp"

namespace ramr::io {

// One published window: `size` bytes at `data`, starting at global stream
// offset `base_offset` (apps whose keys depend on absolute position — the
// histogram's channel = offset % 3 — need it).
struct WindowData {
  const char* data = nullptr;
  std::size_t size = 0;
  std::uint64_t base_offset = 0;
};

// Record-break predicate: a window may end right after a byte for which
// this returns true. Null = binary stream, cut anywhere.
using RecordBreak = bool (*)(char);

// The word-separator class of the text apps (simd::is_word_separator):
// breaking after any of these never cuts a word.
inline bool text_record_break(char c) { return simd::is_word_separator(c); }

class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  // Produce the next window. Copying sources fill [scratch, scratch+cap)
  // (cap = IoConfig::window_bytes); zero_copy() sources ignore scratch and
  // return a view of their own memory. size == 0 signals end of stream.
  // Throws ConfigError naming RAMR_IO_WINDOW when a single record exceeds
  // the window, Error (with errno detail) on read failure.
  virtual WindowData next(char* scratch, std::size_t cap) = 0;

  // Every map task over `window` has completed; release its resources.
  virtual void retire(const WindowData& window) { (void)window; }

  // True when next() returns views of source-owned memory (the feeder
  // then allocates no scratch buffers).
  virtual bool zero_copy() const { return false; }

  // "mmap" | "direct" | "buffered" | "gzip" — the machinery actually in
  // use after capability fallback (IoStats::source).
  virtual const char* kind() const = 0;

  // Fresh input bytes read so far (decompressed bytes for gzip).
  std::uint64_t bytes_read() const { return bytes_read_; }

  // Record-boundary carry-over bytes copied between windows so far.
  std::uint64_t carry_bytes() const { return carry_total_; }

 protected:
  std::uint64_t bytes_read_ = 0;
  std::uint64_t carry_total_ = 0;
};

// Sequential byte producer behind CopyChunkSource.
class ByteReader {
 public:
  virtual ~ByteReader() = default;
  // Read up to n bytes into dst; 0 = end of stream. Throws Error (with
  // errno detail) on failure.
  virtual std::size_t read_some(char* dst, std::size_t n) = 0;
  virtual const char* kind() const = 0;
};

// Copying source: fills windows from a ByteReader, snapping each to the
// last record break and carrying the cut tail (plus a one-byte EOF probe)
// into the next window.
class CopyChunkSource : public ChunkSource {
 public:
  CopyChunkSource(std::unique_ptr<ByteReader> reader, RecordBreak is_break,
                  std::size_t window_bytes);

  WindowData next(char* scratch, std::size_t cap) override;
  const char* kind() const override { return reader_->kind(); }

 private:
  std::size_t fill(char* dst, std::size_t n);  // loops read_some

  std::unique_ptr<ByteReader> reader_;
  RecordBreak is_break_;
  std::size_t window_bytes_;
  std::string carry_;         // tail of the previous window
  std::uint64_t offset_ = 0;  // global offset of the next window start
  bool eof_ = false;
};

// Sliding per-window mmap source. Each window is its own page-aligned
// mapping (never the whole file), advised MADV_SEQUENTIAL; retire()
// advises MADV_DONTNEED and unmaps. Any mappings still live at
// destruction (cancelled runs) are unmapped then.
class MmapChunkSource : public ChunkSource {
 public:
  MmapChunkSource(const std::string& path, std::size_t window_bytes,
                  RecordBreak is_break);
  ~MmapChunkSource() override;

  WindowData next(char* scratch, std::size_t cap) override;
  void retire(const WindowData& window) override;
  bool zero_copy() const override { return true; }
  const char* kind() const override { return "mmap"; }

 private:
  struct Mapping {
    const char* data = nullptr;  // window view (for retire lookup)
    void* addr = nullptr;        // mapping base (page-aligned)
    std::size_t len = 0;
  };

  std::string path_;
  int fd_ = -1;
  std::uint64_t file_size_ = 0;
  std::uint64_t offset_ = 0;
  std::size_t window_bytes_;
  RecordBreak is_break_;
  std::vector<Mapping> live_;
};

// Readers for CopyChunkSource.
std::unique_ptr<ByteReader> open_buffered_reader(const std::string& path);
// O_DIRECT through an aligned bounce buffer; falls back to buffered reads
// (kind() reports which) when the open is refused (tmpfs, some network
// filesystems).
std::unique_ptr<ByteReader> open_direct_reader(const std::string& path);

// Factory: the source for `path` under `cfg`. A ".gz" suffix routes
// through the zlib inflate stage regardless of mode (compressed bytes
// cannot be windowed in place); throws Error when the build lacks zlib
// (see io/gzip.hpp). cfg.mode must not be kOff.
std::unique_ptr<ChunkSource> open_chunk_source(const std::string& path,
                                               const IoConfig& cfg,
                                               RecordBreak is_break);

}  // namespace ramr::io
